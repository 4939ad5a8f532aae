package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// AliasTable samples from an arbitrary finite discrete distribution in
// O(1) per draw using Vose's alias method: the distribution over n
// outcomes is repacked into n equal-probability columns, each holding at
// most two outcomes, so a draw is one uniform variate split into a column
// index and an acceptance test. This replaces the per-draw O(log n)
// inverse-CDF binary search (ZipfExact) and the O(n) cumulative-weight
// walk (Mix) that previously ran on every sample.
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
