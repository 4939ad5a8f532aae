package workload

import (
	"math"
	"testing"
)

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
