package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"radar/internal/workload"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v", got)
	}
	if got := Mean([]float64{2, 4, 6}); got != 4 {
		t.Errorf("Mean = %v, want 4", got)
	}
}

func TestStdDev(t *testing.T) {
	if got := StdDev([]float64{5}); got != 0 {
		t.Errorf("StdDev single = %v", got)
	}
	// Sample stddev of {2,4,4,4,5,5,7,9} is ~2.138.
	got := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if !approx(got, 2.138, 0.01) {
		t.Errorf("StdDev = %v, want ~2.138", got)
	}
}

func TestMeanErrShrinksWithN(t *testing.T) {
	rng := workload.Stream(1, 0)
	small := make([]float64, 10)
	large := make([]float64, 1000)
	for i := range small {
		small[i] = rng.NormFloat64()
	}
	for i := range large {
		large[i] = rng.NormFloat64()
	}
	_, hSmall := MeanErr(small)
	_, hLarge := MeanErr(large)
	if hLarge >= hSmall {
		t.Fatalf("half-width did not shrink: %v vs %v", hSmall, hLarge)
	}
	if _, h := MeanErr([]float64{1}); h != 0 {
		t.Fatalf("single-sample half-width = %v", h)
	}
}

func TestFormatMeanErr(t *testing.T) {
	got := FormatMeanErr([]float64{1, 1, 1}, 2)
	if got != "1.00 ± 0.00" {
		t.Fatalf("FormatMeanErr = %q", got)
	}
}

// TestPropertyBounds checks the mean and deviation invariants on random
// samples.
func TestPropertyBounds(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := workload.Stream(seed, 0)
		n := int(nRaw)%50 + 2
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64()*200 - 100
		}
		lo, hi := slices.Min(xs), slices.Max(xs)
		mean, half := MeanErr(xs)
		if mean != Mean(xs) || mean < lo-1e-9 || mean > hi+1e-9 {
			return false
		}
		return StdDev(xs) >= 0 && StdDev(xs) <= hi-lo && half >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
