package workload

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// AliasTable samples from an arbitrary finite discrete distribution in
// O(1) per draw using Vose's alias method: the distribution over n
// outcomes is repacked into n equal-probability columns, each holding at
// most two outcomes, so a draw is one uniform variate split into a column
// index and an acceptance test. With ZipfExact it is the exact-Zipf
// oracle the Reeds approximation is measured against.
//
// Construction is deterministic: columns are filled by processing indices
// from two explicit stacks seeded in ascending index order, so the same
// weights always yield the same table. A table is immutable after
// NewAliasTable returns and safe for concurrent use by goroutines holding
// their own rng.
type AliasTable struct {
	prob  []float64 // acceptance threshold of each column, in [0, 1]
	alias []int32   // fallback outcome of each column
}

// NewAliasTable builds a sampler over len(weights) outcomes where outcome
// i is drawn with probability weights[i]/sum(weights). Weights must be
// non-empty, finite and non-negative with a positive, finite sum.
func NewAliasTable(weights []float64) (*AliasTable, error) {
	n := len(weights)
	if n == 0 {
		return nil, fmt.Errorf("workload: alias table needs at least one weight")
	}
	sum := 0.0
	for i, w := range weights {
		if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
			return nil, fmt.Errorf("workload: alias weight %d is %v, want finite and >= 0", i, w)
		}
		sum += w
	}
	if sum <= 0 || math.IsInf(sum, 0) {
		return nil, fmt.Errorf("workload: alias weights sum to %v, want positive and finite", sum)
	}
	t := &AliasTable{prob: make([]float64, n), alias: make([]int32, n)}
	scaled := make([]float64, n)
	scale := float64(n) / sum
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i, w := range weights {
		scaled[i] = w * scale
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		t.prob[s] = scaled[s]
		t.alias[s] = l
		// The large outcome donated (1 - scaled[s]) of its mass to fill
		// column s.
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	// Whatever remains on either stack has (numerically) exactly unit
	// mass: give it its whole column.
	for _, i := range large {
		t.prob[i] = 1
		t.alias[i] = i
	}
	for _, i := range small {
		t.prob[i] = 1
		t.alias[i] = i
	}
	return t, nil
}

// N returns the number of outcomes.
func (t *AliasTable) N() int { return len(t.prob) }

// Draw samples an outcome index in [0, N) using one uniform variate from
// rng.
func (t *AliasTable) Draw(rng *rand.Rand) int {
	u := rng.Float64() * float64(len(t.prob))
	col := int(u)
	if col >= len(t.prob) {
		col = len(t.prob) - 1 // guard the u -> 1⁻ rounding edge
	}
	if u-float64(col) < t.prob[col] {
		return col
	}
	return int(t.alias[col])
}

// distribution. It exists to validate the Reeds approximation and for
// ablation experiments; the paper's simulations use the approximation.
// Draws go through a Vose alias table, so each sample costs one uniform
// variate and O(1) work instead of the former O(log n) inverse-CDF binary
// search.
type ZipfExact struct {
	alias *AliasTable
}

// NewZipfExact builds the exact sampler over ranks 1..n.
func NewZipfExact(n int) *ZipfExact {
	if n < 1 {
		n = 1
	}
	weights := make([]float64, n)
	for i := 1; i <= n; i++ {
		weights[i-1] = 1 / float64(i)
	}
	alias, err := NewAliasTable(weights)
	if err != nil {
		// Harmonic weights are always positive and finite.
		panic(err)
	}
	return &ZipfExact{alias: alias}
}

// Rank draws a page rank in [1, n].
func (z *ZipfExact) Rank(rng *rand.Rand) int {
	return z.alias.Draw(rng) + 1
}

// harmonicPMF returns the exact truncated Zipf (s=1) PMF over ranks 1..n.
func harmonicPMF(n int) []float64 {
	h := 0.0
	for i := 1; i <= n; i++ {
		h += 1 / float64(i)
	}
	pmf := make([]float64, n)
	for i := 1; i <= n; i++ {
		pmf[i-1] = 1 / float64(i) / h
	}
	return pmf
}

// TestAliasTableReconstructsWeights: the distribution encoded by the alias
// columns must equal the normalized input weights up to rounding — a
// deterministic, draw-free correctness check of the construction.
func TestAliasTableReconstructsWeights(t *testing.T) {
	cases := map[string][]float64{
		"harmonic100": harmonicPMF(100),
		"single":      {7},
		"uniform4":    {1, 1, 1, 1},
		"lumpy":       {0.5, 0, 3, 1e-9, 2},
		"huge-ratio":  {1e12, 1},
	}
	for name, weights := range cases {
		tab, err := NewAliasTable(weights)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := 0.0
		for _, w := range weights {
			sum += w
		}
		got := tab.Probabilities()
		for i, w := range weights {
			want := w / sum
			if math.Abs(got[i]-want) > 1e-12 {
				t.Errorf("%s: outcome %d has probability %v, want %v", name, i, got[i], want)
			}
		}
	}
}

func TestAliasTableRejectsBadWeights(t *testing.T) {
	for name, weights := range map[string][]float64{
		"empty":    {},
		"all-zero": {0, 0, 0},
		"negative": {1, -0.5},
		"nan":      {1, math.NaN()},
		"inf":      {math.Inf(1), 1},
	} {
		if _, err := NewAliasTable(weights); err == nil {
			t.Errorf("%s: NewAliasTable accepted invalid weights %v", name, weights)
		}
	}
}

// chiSquared returns the chi-squared statistic of observed counts against
// expected probabilities over `draws` samples.
func chiSquared(counts []int, pmf []float64, draws int) float64 {
	stat := 0.0
	for i, p := range pmf {
		exp := p * float64(draws)
		d := float64(counts[i]) - exp
		stat += d * d / exp
	}
	return stat
}

// TestZipfExactChiSquared: the alias-backed exact sampler's draws must be
// statistically indistinguishable from the exact Zipf PMF. With n=100 the
// smallest expected bin count is ~960 over 500k draws, so the plain
// chi-squared test applies to every bin; the threshold df + 5·sqrt(2·df)
// has a false-positive probability well under 1e-4, and the seed is fixed,
// so the test is deterministic in practice.
func TestZipfExactChiSquared(t *testing.T) {
	const n = 100
	const draws = 500000
	pmf := harmonicPMF(n)
	z := NewZipfExact(n)
	rng := Stream(11, 1)
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[z.Rank(rng)-1]++
	}
	df := float64(n - 1)
	limit := df + 5*math.Sqrt(2*df)
	if stat := chiSquared(counts, pmf, draws); stat > limit {
		t.Fatalf("chi-squared %.1f exceeds %.1f (df %.0f): alias sampler does not match exact Zipf PMF", stat, limit, df)
	}
}

// TestAliasTableChiSquaredLumpy repeats the distribution-equivalence check
// on a deliberately skewed non-Zipf distribution.
func TestAliasTableChiSquaredLumpy(t *testing.T) {
	weights := []float64{10, 1, 0.2, 5, 0.2, 3, 1, 7}
	sum := 0.0
	for _, w := range weights {
		sum += w
	}
	pmf := make([]float64, len(weights))
	for i, w := range weights {
		pmf[i] = w / sum
	}
	tab, err := NewAliasTable(weights)
	if err != nil {
		t.Fatal(err)
	}
	const draws = 400000
	counts := make([]int, len(weights))
	rng := Stream(12, 1)
	for i := 0; i < draws; i++ {
		counts[tab.Draw(rng)]++
	}
	df := float64(len(weights) - 1)
	limit := df + 5*math.Sqrt(2*df)
	if stat := chiSquared(counts, pmf, draws); stat > limit {
		t.Fatalf("chi-squared %.1f exceeds %.1f (df %.0f)", stat, limit, df)
	}
}

// TestZipfExactSingleObject: the degenerate n=1 sampler must always return
// rank 1.
func TestZipfExactSingleObject(t *testing.T) {
	z := NewZipfExact(1)
	rng := Stream(13, 1)
	for i := 0; i < 100; i++ {
		if r := z.Rank(rng); r != 1 {
			t.Fatalf("rank = %d, want 1", r)
		}
	}
}

// Probabilities reconstructs the exact distribution the table samples
// from: outcome i's probability is its own column's acceptance mass plus
// every donation it received from other columns, to compare against the
// normalized input weights.
func (t *AliasTable) Probabilities() []float64 {
	n := len(t.prob)
	out := make([]float64, n)
	for i := range t.prob {
		out[i] += t.prob[i] / float64(n)
		out[t.alias[i]] += (1 - t.prob[i]) / float64(n)
	}
	return out
}
