package workload

import (
	"math"
	"math/rand"
)

// ZipfReeds samples page ranks approximately following Zipf's law using the
// closed-form approximation due to Jim Reeds that the paper adopts
// (§6.1, footnote 3): the requested page number is e^(u(0,1)·ln n) rounded
// to the nearest integer, where u(0,1) is uniform on (0,1) and n is the
// number of objects. Returned ranks are in [1, n]; rank 1 is the most
// popular page. The paper reports the approximation stays within 15% of
// exact Zipf popularities.
//
// Most draws skip the exponential: a table over reedsBuckets equal
// buckets of u holds the rank of every bucket the closed form maps to one
// rank throughout, so a draw is one table load and falls back to the
// formula only in a bucket that straddles a rank boundary.
type ZipfReeds struct {
	n     int
	logN  float64
	ranks *[reedsBuckets]int32 // a bucket's rank, or 0 where the formula decides
}

const reedsBuckets = 1 << 13

// NewZipfReeds returns a sampler over ranks 1..n. n must be >= 1.
func NewZipfReeds(n int) *ZipfReeds {
	if n < 1 {
		n = 1
	}
	z := &ZipfReeds{n: n, logN: math.Log(float64(n)), ranks: new([reedsBuckets]int32)}
	z.fillRanks()
	return z
}

// Rank draws a page rank in [1, n].
func (z *ZipfReeds) Rank(rng *rand.Rand) int { return z.at(rng.Float64()) }

// at is the rank of the uniform draw u in [0, 1).
func (z *ZipfReeds) at(u float64) int {
	if r := z.ranks[int(u*reedsBuckets)]; r != 0 {
		return int(r)
	}
	return z.rank(u)
}

// rank is the closed form, the definition the table reproduces.
func (z *ZipfReeds) rank(u float64) int {
	// rand.Float64 returns [0,1); the formula wants (0,1). Zero would give
	// rank 1, which is the correct limit, so no resampling is needed, but
	// rounding can exceed n when u is close to 1: clamp.
	return min(max(int(math.Round(z.exp(u))), 1), z.n)
}

// exp is the formula's exponential at u.
func (z *ZipfReeds) exp(u float64) float64 { return math.Exp(u * z.logN) }

// inside reports whether the formula's exponential x lies at least four
// ulps inside (k-½, k+½). math.Exp is within one ulp of a function
// monotone in u, so when x at both ends of a run of buckets is inside,
// every u between them rounds to k.
func inside(x float64, k int) bool {
	m := float64(k+1) * 0x1p-50
	return x > float64(k)-0.5+m && x < float64(k)+0.5-m
}

// fillRanks walks the runs of buckets that share a rank: from a run's
// first bucket it finds the last by the rank boundary's logarithm and
// checks both ends; the bucket holding the boundary stays 0. The walk
// stops where boundaries lie closer than a bucket, past which every
// bucket holds one, so building costs O(reedsBuckets / ln n) formula
// calls rather than one per bucket.
func (z *ZipfReeds) fillRanks() {
	const w = 1.0 / reedsBuckets
	for b := 0; b < reedsBuckets; {
		x := z.exp(float64(b) * w)
		k := min(int(math.Round(x)), z.n)
		if (float64(k)-0.5)*z.logN*w >= 1 {
			return
		}
		if !inside(x, k) {
			b++
			continue
		}
		end := reedsBuckets
		if k < z.n {
			end = min(end, int(math.Log(float64(k)+0.5)/z.logN*reedsBuckets))
		}
		for end > b && !inside(z.exp(float64(end)*w), k) {
			end--
		}
		for i := b; i < end; i++ {
			z.ranks[i] = int32(k)
		}
		b = max(b, end) + 1
	}
}
