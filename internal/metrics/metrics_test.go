package metrics

import (
	"math"
	"testing"
	"time"

	"radar/internal/protocol"
	"radar/internal/simnet"
	"radar/internal/workload"
)

func newCollector(t *testing.T) *Collector {
	t.Helper()
	c, err := New(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestBucketedBandwidth(t *testing.T) {
	c := newCollector(t)
	c.RecordTransfer(10*time.Second, simnet.Payload, 600, 2)  // bucket 0: 1200
	c.RecordTransfer(30*time.Second, simnet.Overhead, 100, 3) // bucket 0: 300
	c.RecordTransfer(90*time.Second, simnet.Payload, 60, 1)   // bucket 1: 60
	bw := c.BandwidthSeries()
	if len(bw) != 2 {
		t.Fatalf("series length = %d, want 2", len(bw))
	}
	if bw[0].V != 1500.0/60 {
		t.Errorf("bucket 0 bandwidth = %v, want 25 byte-hops/s", bw[0].V)
	}
	if bw[1].V != 1.0 {
		t.Errorf("bucket 1 bandwidth = %v, want 1", bw[1].V)
	}
	p, o := c.TotalByteHops()
	if p != 1260 || o != 300 {
		t.Errorf("totals = (%v, %v), want (1260, 300)", p, o)
	}
}

func TestOverheadPercent(t *testing.T) {
	c := newCollector(t)
	c.RecordTransfer(0, simnet.Payload, 900, 1)
	c.RecordTransfer(0, simnet.Overhead, 100, 1)
	if got := c.OverheadPercent(); got != 10 {
		t.Fatalf("OverheadPercent = %v, want 10", got)
	}
	series := c.OverheadPercentSeries()
	if series[0].V != 10 {
		t.Fatalf("series overhead = %v, want 10", series[0].V)
	}
}

func TestLatencySeries(t *testing.T) {
	c := newCollector(t)
	c.RecordLatency(5*time.Second, 100*time.Millisecond)
	c.RecordLatency(6*time.Second, 300*time.Millisecond)
	c.RecordLatency(61*time.Second, time.Second)
	s := c.LatencySeries()
	if len(s) != 2 {
		t.Fatalf("series length = %d, want 2", len(s))
	}
	if s[0].V != 0.2 {
		t.Errorf("bucket 0 avg latency = %v, want 0.2s", s[0].V)
	}
	if s[1].V != 1.0 {
		t.Errorf("bucket 1 avg latency = %v, want 1s", s[1].V)
	}
	if got := c.Counters().Requests; got != 3 {
		t.Errorf("requests = %d, want 3", got)
	}
}

func TestObserverCounters(t *testing.T) {
	c := newCollector(t)
	r := protocol.Recorder(c.Count)
	r.OnMigrate(0, 1, 0, 1, protocol.GeoMove)
	r.OnMigrate(0, 1, 0, 1, protocol.LoadMove)
	r.OnReplicate(0, 1, 0, 1, protocol.GeoMove)
	r.OnReplicate(0, 1, 0, 1, protocol.LoadMove)
	r.OnReplicate(0, 1, 0, 1, protocol.LoadMove)
	r.OnReplicate(0, 1, 0, 1, protocol.RepairMove)
	r.OnDrop(0, 1, 0)
	r.OnRefuse(0, 1, 0, 1, protocol.Migrate)
	r.OnDefer(0, 1, 0, 1, protocol.Replicate)
	c.Count(protocol.Event{Kind: protocol.EventCopy, Object: 1, To: 1}) // not a decision
	got := c.Counters()
	want := Counters{GeoMigrations: 1, LoadMigrations: 1, GeoReplications: 1, LoadReplications: 2,
		RepairReplications: 1, Drops: 1, Refusals: 1, DeferredMoves: 1}
	if got != want {
		t.Fatalf("counters = %+v, want %+v", got, want)
	}
}

func TestSummarize(t *testing.T) {
	points := []Point{
		{0, 100}, {1, 100}, {2, 80}, {3, 60},
		{4, 40}, {5, 40}, {6, 40}, {7, 40},
	}
	s := Summarize(points, 2)
	if s.Initial != 100 {
		t.Errorf("Initial = %v, want 100", s.Initial)
	}
	if s.Equilibrium != 40 {
		t.Errorf("Equilibrium = %v, want 40", s.Equilibrium)
	}
	if s.ReductionPercent != 60 {
		t.Errorf("Reduction = %v%%, want 60%%", s.ReductionPercent)
	}
}

func TestSummarizeEdgeCases(t *testing.T) {
	if s := Summarize(nil, 3); s.Initial != 0 || s.Equilibrium != 0 {
		t.Errorf("empty series stats = %+v, want zeros", s)
	}
	one := []Point{{0, 5}}
	if s := Summarize(one, 3); s.Initial != 5 || s.Equilibrium != 5 {
		t.Errorf("single-point stats = %+v", s)
	}
}

func TestAdjustmentTime(t *testing.T) {
	mk := func(vals ...float64) []Point {
		out := make([]Point, len(vals))
		for i, v := range vals {
			out[i] = Point{T: time.Duration(i) * time.Minute, V: v}
		}
		return out
	}
	// Equilibrium (last quarter of 12 = 3 points) = 40; limit 44.
	pts := mk(100, 95, 90, 70, 60, 43, 42, 41, 40, 40, 40, 40)
	at, ok := AdjustmentTime(pts, 1.10)
	if !ok || at != 5*time.Minute {
		t.Fatalf("AdjustmentTime = (%v, %v), want 5m", at, ok)
	}
	// Transient dip at index 2 must not count (next bucket above limit).
	pts = mk(100, 95, 20, 95, 60, 43, 42, 41, 40, 40, 40, 40)
	at, ok = AdjustmentTime(pts, 1.10)
	if !ok || at != 5*time.Minute {
		t.Fatalf("with transient dip AdjustmentTime = (%v, %v), want 5m", at, ok)
	}
	if _, ok := AdjustmentTime(nil, 1.10); ok {
		t.Fatal("empty series reported adjustment")
	}
}

func TestMaxValue(t *testing.T) {
	pts := []Point{{0, 1}, {time.Minute, 9}, {2 * time.Minute, 4}}
	if got := MaxValue(pts); got != 9 {
		t.Errorf("MaxValue = %v, want 9", got)
	}
}

func TestSandwichViolations(t *testing.T) {
	samples := []HostLoadSample{
		{T: 0, Actual: 50, Lower: 40, Upper: 60},
		{T: 1, Actual: 39, Lower: 40, Upper: 60},
		{T: 2, Actual: 61, Lower: 40, Upper: 60},
	}
	if got := SandwichViolations(samples, 0); got != 2 {
		t.Errorf("violations = %d, want 2", got)
	}
	if got := SandwichViolations(samples, 2); got != 0 {
		t.Errorf("violations with slack = %d, want 0", got)
	}
}

func TestSeriesAccessorsCopy(t *testing.T) {
	c := newCollector(t)
	c.RecordMaxLoad(0, 10)
	c.RecordHostLoad(0, 5, 4, 6)
	c.RecordReplicaCensus(0, 1.5)
	c.MaxLoadSeries()[0].V = 99
	if c.MaxLoadSeries()[0].V == 99 {
		t.Error("MaxLoadSeries exposed internals")
	}
	c.HostLoadSeries()[0].Actual = 99
	if c.HostLoadSeries()[0].Actual == 99 {
		t.Error("HostLoadSeries exposed internals")
	}
	c.ReplicaSeries()[0].V = 99
	if c.ReplicaSeries()[0].V == 99 {
		t.Error("ReplicaSeries exposed internals")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Fatal("zero bucket accepted")
	}
}

func TestLatencyQuantileSeries(t *testing.T) {
	c := newCollector(t)
	// 99 fast samples and 1 slow one in bucket 0.
	for i := 0; i < 99; i++ {
		c.RecordLatency(time.Second, 10*time.Millisecond)
	}
	c.RecordLatency(time.Second, 5*time.Second)
	p50 := c.LatencyQuantileSeries(0.50)[0].V
	p99 := c.LatencyQuantileSeries(0.99)[0].V
	p999 := c.LatencyQuantileSeries(0.999)[0].V
	// Histogram bins give upper-edge estimates with ~7% resolution.
	if p50 < 0.010 || p50 > 0.012 {
		t.Errorf("p50 = %v, want ~10ms", p50)
	}
	if p99 < 0.010 || p99 > 0.012 {
		t.Errorf("p99 = %v, want ~10ms (99/100 samples fast)", p99)
	}
	if p999 < 5.0 || p999 > 5.5 {
		t.Errorf("p99.9 = %v, want ~5s (the slow sample)", p999)
	}
	if got := c.LatencyQuantileSeries(0.99); len(got) != 1 {
		t.Errorf("series length = %d", len(got))
	}
}

func TestLatencyQuantileEdges(t *testing.T) {
	c := newCollector(t)
	c.RecordLatency(0, time.Microsecond) // below histogram floor
	c.RecordLatency(0, 2*time.Hour)      // above histogram ceiling
	q := c.LatencyQuantileSeries(1.0)[0].V
	if q < 999 {
		t.Errorf("max quantile = %v, want clamped at histogram ceiling", q)
	}
	lo := c.LatencyQuantileSeries(0)[0].V
	if lo <= 0 {
		t.Errorf("min quantile = %v, want positive floor bin", lo)
	}
	// Empty bucket: quantile 0.
	var empty latencyHist
	if got := empty.quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
}

// TestHistogramMonotoneProperty: quantiles are monotone in q and bracket
// the observed samples' bins.
func TestHistogramMonotoneProperty(t *testing.T) {
	rng := workload.Stream(5, 0)
	for trial := 0; trial < 50; trial++ {
		var h latencyHist
		for i := 0; i < 200; i++ {
			h.observe(time.Duration(rng.Intn(10_000_000)+1) * time.Microsecond)
		}
		prev := 0.0
		for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.99, 1} {
			v := h.quantile(q)
			if v < prev {
				t.Fatalf("trial %d: quantile not monotone at q=%v: %v < %v", trial, q, v, prev)
			}
			prev = v
		}
	}
}

// TestLatencyBinTable checks the table against its definition, binFor:
// every nanosecond within 10 µs of each bin edge, the durations at and
// below zero, those past the histogram's ceiling, and a million random
// ones spread over every octave.
func TestLatencyBinTable(t *testing.T) {
	check := func(d time.Duration) {
		t.Helper()
		if got, want := binOf(d), binFor(d.Seconds()); got != want {
			t.Fatalf("binOf(%d ns) = %d, binFor says %d", int64(d), got, want)
		}
	}
	const near = 10 * time.Microsecond
	for k := 1; k < histBins; k++ {
		edge := time.Duration(binUpper(k-1) * 1e9)
		if binOf(edge-near) >= k || binOf(edge+near) < k {
			t.Fatalf("edge %d at %v is not within %v of its estimate", k, edge, near)
		}
		for d := edge - near; d <= edge+near; d++ {
			check(d)
		}
	}
	for _, d := range []time.Duration{0, -1, -time.Second, math.MinInt64, 1, 7, 8} {
		check(d)
	}
	ceiling := time.Duration(histMax * 1e9)
	for _, d := range []time.Duration{ceiling - 1, ceiling, ceiling + 1, 2 * ceiling, math.MaxInt64} {
		check(d)
	}
	rng := workload.Stream(7, 0)
	for i := 0; i < 1_000_000; i++ {
		check(time.Duration(rng.Int63() >> rng.Intn(63)))
	}
}

// FuzzLatencyBin widens TestLatencyBinTable to any duration.
func FuzzLatencyBin(f *testing.F) {
	for _, d := range []int64{0, -1, 100_000, 117_000, 1e12, math.MaxInt64} {
		f.Add(d)
	}
	f.Fuzz(func(t *testing.T, ns int64) {
		d := time.Duration(ns)
		if got, want := binOf(d), binFor(d.Seconds()); got != want {
			t.Fatalf("binOf(%d ns) = %d, binFor says %d", ns, got, want)
		}
	})
}

// BenchmarkLatencyBin sizes the table lookup against the logarithm it
// replaces, over request-like latencies (1 ms to 1 s).
func BenchmarkLatencyBin(b *testing.B) {
	rng := workload.Stream(1, 0)
	ds := make([]time.Duration, 1<<12)
	for i := range ds {
		ds[i] = time.Millisecond + time.Duration(rng.Int63n(int64(time.Second)))
	}
	b.Run("table", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink += binOf(ds[i&(len(ds)-1)])
		}
	})
	b.Run("log", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink += binFor(ds[i&(len(ds)-1)].Seconds())
		}
	})
	b.Run("build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink += buildBinCells()[i&511].base
		}
	})
}

var benchSink int
