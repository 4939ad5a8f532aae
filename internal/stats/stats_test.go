package stats

import (
	"math"
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

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 10}, {100, 40}, {50, 25}, {25, 17.5}, {-5, 10}, {150, 40},
	}
	for _, tc := range tests {
		if got := Percentile(xs, tc.p); !approx(got, tc.want, 1e-9) {
			t.Errorf("Percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("empty percentile = %v", got)
	}
	if got := Percentile([]float64{7}, 99); got != 7 {
		t.Errorf("single percentile = %v", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.P50 != 3 {
		t.Fatalf("summary = %+v", s)
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

// TestPropertyBounds checks order-statistics invariants on random samples.
func TestPropertyBounds(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := workload.Stream(seed, 0)
		n := int(nRaw)%50 + 2
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64()*200 - 100
		}
		s := Summarize(xs)
		if s.Mean < s.Min-1e-9 || s.Mean > s.Max+1e-9 {
			return false
		}
		if s.P50 < s.Min-1e-9 || s.P50 > s.Max+1e-9 {
			return false
		}
		if s.StdDev < 0 {
			return false
		}
		p25, p75 := Percentile(xs, 25), Percentile(xs, 75)
		return p25 <= s.P50+1e-9 && s.P50 <= p75+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
