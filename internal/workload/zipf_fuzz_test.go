package workload

import (
	"math"
	"testing"
)

// FuzzZipfReedsRank: for any universe size and seed, the Reeds
// approximation must return ranks in [1, n] (clamping degenerate n to 1),
// each the closed form's rank of one uniform draw, deterministically for a
// fixed (seed, stream) pair.
func FuzzZipfReedsRank(f *testing.F) {
	f.Add(int64(1), uint16(10000))
	f.Add(int64(-7), uint16(1))
	f.Add(int64(0), uint16(0))
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint16) {
		n := int(nRaw)
		z := NewZipfReeds(n)
		if n < 1 {
			n = 1
		}
		rng := Stream(seed, 3)
		rng2 := Stream(seed, 3)
		for i := 0; i < 64; i++ {
			r := z.Rank(rng)
			if r < 1 || r > n {
				t.Fatalf("rank %d out of [1, %d] (seed %d, draw %d)", r, n, seed, i)
			}
			u := rng2.Float64()
			if want := z.rank(u); r != want {
				t.Fatalf("draw %d (u=%v) gave rank %d, the closed form says %d", i, u, r, want)
			}
		}
	})
}

// FuzzAliasTable: alias-table construction must be total over arbitrary
// small weight vectors — valid inputs yield a well-formed table whose
// encoded distribution matches the normalized weights and whose draws stay
// in range; invalid inputs yield an error, never a panic or a malformed
// table. Weights are decoded from raw fuzz bytes so degenerate shapes
// (n=1, zeros, extreme ratios) are reachable.
func FuzzAliasTable(f *testing.F) {
	f.Add([]byte{1}, int64(1))
	f.Add([]byte{0, 0, 0}, int64(2))
	f.Add([]byte{255, 1, 128, 3, 7}, int64(42))
	f.Fuzz(func(t *testing.T, raw []byte, seed int64) {
		if len(raw) > 256 {
			raw = raw[:256]
		}
		weights := make([]float64, len(raw))
		sum := 0.0
		for i, b := range raw {
			// Spread magnitudes across ~9 decades to stress the
			// small/large worklists.
			weights[i] = float64(b%16) * math.Pow(10, float64(b/32)-4)
			sum += weights[i]
		}
		tab, err := NewAliasTable(weights)
		if len(weights) == 0 || sum <= 0 {
			if err == nil {
				t.Fatalf("NewAliasTable accepted invalid weights %v", weights)
			}
			return
		}
		if err != nil {
			t.Fatalf("NewAliasTable(%v): %v", weights, err)
		}
		if tab.N() != len(weights) {
			t.Fatalf("N() = %d, want %d", tab.N(), len(weights))
		}
		got := tab.Probabilities()
		for i, w := range weights {
			want := w / sum
			if math.Abs(got[i]-want) > 1e-9 {
				t.Fatalf("outcome %d has probability %v, want %v (weights %v)", i, got[i], want, weights)
			}
		}
		rng := Stream(seed, 5)
		for i := 0; i < 64; i++ {
			d := tab.Draw(rng)
			if d < 0 || d >= len(weights) {
				t.Fatalf("draw %d out of [0, %d)", d, len(weights))
			}
			if weights[d] == 0 {
				t.Fatalf("drew zero-weight outcome %d", d)
			}
		}
	})
}

// FuzzZipfExactRank: the alias-backed exact sampler must return in-range
// ranks deterministically for any universe size.
func FuzzZipfExactRank(f *testing.F) {
	f.Add(uint16(1), int64(1))
	f.Add(uint16(997), int64(42))
	f.Fuzz(func(t *testing.T, nRaw uint16, seed int64) {
		n := int(nRaw)%2048 + 1 // keep table construction cheap
		z := NewZipfExact(n)
		rng := Stream(seed, 5)
		rng2 := Stream(seed, 5)
		for i := 0; i < 64; i++ {
			r := z.Rank(rng)
			if r < 1 || r > n {
				t.Fatalf("exact rank %d out of [1, %d]", r, n)
			}
			if r2 := z.Rank(rng2); r2 != r {
				t.Fatalf("same stream diverged: draw %d gave %d then %d", i, r, r2)
			}
		}
	})
}
