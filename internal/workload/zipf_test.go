package workload

import (
	"math"
	"testing"
	"testing/quick"
)

func TestZipfReedsRange(t *testing.T) {
	z := NewZipfReeds(1000)
	rng := Stream(1, 1)
	for i := 0; i < 100000; i++ {
		r := z.Rank(rng)
		if r < 1 || r > 1000 {
			t.Fatalf("rank %d out of [1,1000]", r)
		}
	}
}

func TestZipfReedsSingleObject(t *testing.T) {
	z := NewZipfReeds(1)
	rng := Stream(2, 1)
	for i := 0; i < 100; i++ {
		if r := z.Rank(rng); r != 1 {
			t.Fatalf("rank = %d, want 1", r)
		}
	}
}

func TestZipfReedsMonotonePopularity(t *testing.T) {
	// Rank 1 must be sampled more often than rank 10, which must beat
	// rank 100 — the defining property of a Zipf-like head.
	z := NewZipfReeds(1000)
	rng := Stream(3, 1)
	counts := make(map[int]int)
	const draws = 500000
	for i := 0; i < draws; i++ {
		counts[z.Rank(rng)]++
	}
	if !(counts[1] > counts[10] && counts[10] > counts[100]) {
		t.Fatalf("popularity not decreasing: c1=%d c10=%d c100=%d", counts[1], counts[10], counts[100])
	}
}

func TestZipfReedsMatchesAnalyticMass(t *testing.T) {
	// Under the Reeds closed form, rank k receives probability mass
	// (ln(min(k+1/2, n)) - ln(max(k-1/2, 1))) / ln(n). Verify the sampler
	// against its own analytic distribution at head ranks.
	const n = 1000
	const draws = 2000000
	z := NewZipfReeds(n)
	rng := Stream(4, 1)
	counts := make([]int, n+1)
	for i := 0; i < draws; i++ {
		counts[z.Rank(rng)]++
	}
	logN := math.Log(n)
	for _, rank := range []int{1, 2, 3, 5, 8, 20} {
		lo := math.Max(float64(rank)-0.5, 1)
		hi := math.Min(float64(rank)+0.5, n)
		want := (math.Log(hi) - math.Log(lo)) / logN
		got := float64(counts[rank]) / draws
		if rel := math.Abs(got-want) / want; rel > 0.10 {
			t.Errorf("rank %d: got frequency %.5f, analytic %.5f (rel err %.2f > 0.10)", rank, got, want, rel)
		}
	}
}

func TestZipfReedsNearZipfMidRanks(t *testing.T) {
	// Away from the rounding artifact at rank 1, the approximation should
	// track exact Zipf within the paper's quoted ~15% (we allow 25% for
	// sampling noise at low-mass ranks).
	const n = 1000
	const draws = 2000000
	z := NewZipfReeds(n)
	rng := Stream(14, 1)
	counts := make([]int, n+1)
	for i := 0; i < draws; i++ {
		counts[z.Rank(rng)]++
	}
	h := 0.0
	for i := 1; i <= n; i++ {
		h += 1 / float64(i)
	}
	for _, rank := range []int{5, 10, 20, 50} {
		want := 1 / float64(rank) / h
		got := float64(counts[rank]) / draws
		if rel := math.Abs(got-want) / want; rel > 0.25 {
			t.Errorf("rank %d: got %.5f, exact Zipf %.5f (rel err %.2f > 0.25)", rank, got, want, rel)
		}
	}
}

func TestZipfExactMatchesHarmonicWeights(t *testing.T) {
	const n = 100
	const draws = 1000000
	z := NewZipfExact(n)
	rng := Stream(5, 1)
	counts := make([]int, n+1)
	for i := 0; i < draws; i++ {
		r := z.Rank(rng)
		if r < 1 || r > n {
			t.Fatalf("rank %d out of range", r)
		}
		counts[r]++
	}
	h := 0.0
	for i := 1; i <= n; i++ {
		h += 1 / float64(i)
	}
	for _, rank := range []int{1, 2, 4, 10} {
		want := 1 / float64(rank) / h
		got := float64(counts[rank]) / draws
		if rel := math.Abs(got-want) / want; rel > 0.05 {
			t.Errorf("rank %d: frequency %.5f, want %.5f (rel %.3f)", rank, got, want, rel)
		}
	}
}

func TestZipfRankAlwaysInRangeProperty(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := int(nRaw)%5000 + 1
		z := NewZipfReeds(n)
		rng := Stream(seed, 99)
		for i := 0; i < 200; i++ {
			r := z.Rank(rng)
			if r < 1 || r > n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestStreamIndependenceAndDeterminism(t *testing.T) {
	a1 := Stream(42, 1)
	a2 := Stream(42, 1)
	b := Stream(42, 2)
	c := Stream(43, 1)
	sameAsA1 := true
	diffB, diffC := false, false
	for i := 0; i < 100; i++ {
		v := a1.Int63()
		if a2.Int63() != v {
			sameAsA1 = false
		}
		if b.Int63() != v {
			diffB = true
		}
		if c.Int63() != v {
			diffC = true
		}
	}
	if !sameAsA1 {
		t.Error("same (seed, stream) produced different sequences")
	}
	if !diffB {
		t.Error("different streams produced identical sequences")
	}
	if !diffC {
		t.Error("different seeds produced identical sequences")
	}
}

// TestReedsTableMatchesFormula checks the bucket table against the closed
// form at both ends of every bucket and at the float64 neighbours of every
// rank boundary, where a bucket that wrongly claimed a rank would show.
func TestReedsTableMatchesFormula(t *testing.T) {
	const w = 1.0 / reedsBuckets
	for _, n := range []int{1, 2, 3, 500, 2000, 10000, 100000} {
		z := NewZipfReeds(n)
		check := func(u float64) {
			t.Helper()
			if u < 0 || u >= 1 {
				return
			}
			if got, want := z.at(u), z.rank(u); got != want {
				t.Fatalf("n=%d: rank at u=%v is %d, the formula says %d", n, u, got, want)
			}
		}
		covered := 0
		for b := 0; b < reedsBuckets; b++ {
			check(float64(b) * w)
			check(math.Nextafter(float64(b+1)*w, 0))
			if z.ranks[b] != 0 {
				covered++
			}
		}
		for k := 1; k < n; k++ {
			u := math.Log(float64(k)+0.5) / z.logN
			for _, dir := range []float64{0, 1} {
				v := u
				for i := 0; i < 4; i++ {
					check(v)
					v = math.Nextafter(v, dir)
				}
			}
		}
		t.Logf("n=%d: the table covers %.3f of u", n, float64(covered)/reedsBuckets)
		if n == 10000 && covered < reedsBuckets/2 {
			t.Errorf("n=%d: the table covers only %d of %d buckets", n, covered, reedsBuckets)
		}
	}
}

// BenchmarkZipfReeds sizes a draw and the table build at the Table 1
// universe.
func BenchmarkZipfReeds(b *testing.B) {
	b.Run("rank", func(b *testing.B) {
		z, rng := NewZipfReeds(10000), Stream(1, 1)
		for i := 0; i < b.N; i++ {
			rankSink += z.Rank(rng)
		}
	})
	b.Run("formula", func(b *testing.B) {
		z, rng := NewZipfReeds(10000), Stream(1, 1)
		for i := 0; i < b.N; i++ {
			rankSink += z.rank(rng.Float64())
		}
	})
	b.Run("new", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rankSink += int(NewZipfReeds(10000).ranks[0])
		}
	})
}

var rankSink int
