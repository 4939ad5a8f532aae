package sim

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
	"time"

	"radar/internal/consistency"
	"radar/internal/fault"
	"radar/internal/object"
	"radar/internal/protocol"
	"radar/internal/topology"
	"radar/internal/workload"
)

// testUniverse is scaled down (2000 objects) so integration tests stay
// fast; rates and thresholds are the paper's.
var testUniverse = object.Universe{Count: 2000, SizeBytes: 12 << 10}

func testConfig(t *testing.T, gen workload.Generator, dur time.Duration) Config {
	t.Helper()
	cfg := DefaultConfig(gen, 7)
	cfg.Universe = testUniverse
	cfg.Duration = dur
	return cfg
}

func mustRun(t *testing.T, cfg Config) *Results {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.InvariantsError != nil {
		t.Fatalf("invariants violated: %v", res.InvariantsError)
	}
	return res
}

func TestStaticBaselineServesEverything(t *testing.T) {
	gen, err := workload.NewUniform(testUniverse)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t, gen, 5*time.Minute)
	cfg.DynamicPlacement = false
	res := mustRun(t, cfg)
	// 53 gateways x 40 req/s x 300 s = 636,000 requests offered; uniform
	// demand never overloads a server, so all are served, none time out.
	if res.TimedOutRequests != 0 {
		t.Errorf("timed out %d requests under uniform static load", res.TimedOutRequests)
	}
	if res.TotalServed < 600000 {
		t.Errorf("served %d requests, want ~636k", res.TotalServed)
	}
	if res.Counters.Requests == 0 {
		t.Error("no latency samples recorded")
	}
	if res.AvgReplicas != 1 {
		t.Errorf("static run grew replicas: %v", res.AvgReplicas)
	}
	if res.TotalMoves() != 0 {
		t.Errorf("static run relocated objects: %+v", res.Counters)
	}
	if res.OverheadPercent != 0 {
		t.Errorf("static overhead = %v%%, want 0", res.OverheadPercent)
	}
}

func TestDynamicReducesBandwidthHotPages(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	gen, err := workload.NewHotPages(testUniverse, 0.1, 0.9, 3)
	if err != nil {
		t.Fatal(err)
	}
	staticCfg := testConfig(t, gen, 5*time.Minute)
	staticCfg.DynamicPlacement = false
	static := mustRun(t, staticCfg)

	dynCfg := testConfig(t, gen, 25*time.Minute)
	dyn := mustRun(t, dynCfg)

	reduction := 100 * (static.BandwidthStats.Equilibrium - dyn.BandwidthStats.Equilibrium) /
		static.BandwidthStats.Equilibrium
	// The paper reports 62.9% for hot-pages at full scale; the scaled-down
	// fixture should still show a substantial reduction.
	if reduction < 30 {
		t.Errorf("bandwidth reduction = %.1f%%, want >= 30%%", reduction)
	}
	if dyn.LatencyStats.Equilibrium >= static.LatencyStats.Equilibrium {
		t.Errorf("latency did not improve: dynamic %v vs static %v",
			dyn.LatencyStats.Equilibrium, static.LatencyStats.Equilibrium)
	}
	if dyn.AvgReplicas <= 1.05 {
		t.Errorf("AvgReplicas = %v, want growth above 1", dyn.AvgReplicas)
	}
	if dyn.AvgReplicas > 8 {
		t.Errorf("AvgReplicas = %v: paper creates only a small number of extra replicas", dyn.AvgReplicas)
	}
	// Figure 7 claim: overhead below 2.5% of total traffic.
	if dyn.OverheadPercent > 2.5 {
		t.Errorf("overhead = %.2f%%, paper keeps it under 2.5%%", dyn.OverheadPercent)
	}
}

func TestHotSpotRemovalHotSites(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	gen, err := workload.NewHotSites(testUniverse, 53, 0.9, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t, gen, 45*time.Minute)
	res := mustRun(t, cfg)
	// Hot sites start far beyond server capacity; the protocol must
	// dissolve them: settled max load below the server capacity and near
	// the high watermark.
	if res.MaxLoadPeak < 150 {
		t.Errorf("max load peak = %v, expected initial hot spots near capacity", res.MaxLoadPeak)
	}
	if res.MaxLoadSettled > 120 {
		t.Errorf("settled max load = %v, want hot spots dissolved (paper: below hw)", res.MaxLoadSettled)
	}
	// Latency must collapse from the initial backlog regime.
	if res.LatencyStats.Equilibrium > 1 {
		t.Errorf("equilibrium latency = %vs, want sub-second after adjustment", res.LatencyStats.Equilibrium)
	}
	if res.LatencyStats.Initial < 2*res.LatencyStats.Equilibrium {
		t.Errorf("expected initial latency far above equilibrium, got %v vs %v",
			res.LatencyStats.Initial, res.LatencyStats.Equilibrium)
	}
}

func TestLoadEstimateSandwich(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	gen, err := workload.NewHotPages(testUniverse, 0.1, 0.9, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t, gen, 20*time.Minute)
	cfg.TrackedHost = 5
	res := mustRun(t, cfg)
	if len(res.HostLoad) < 10 {
		t.Fatalf("only %d host-load samples", len(res.HostLoad))
	}
	// Figure 8b: the actual load should (almost always) lie between the
	// lower and upper estimates; allow a small fraction of samples to
	// escape during transients.
	if frac := float64(res.SandwichViolations) / float64(len(res.HostLoad)); frac > 0.15 {
		t.Errorf("%.0f%% of samples escaped the estimate sandwich", 100*frac)
	}
}

func TestDeterminism(t *testing.T) {
	gen, err := workload.NewZipf(testUniverse)
	if err != nil {
		t.Fatal(err)
	}
	run := func() *Results {
		cfg := testConfig(t, gen, 4*time.Minute)
		return mustRun(t, cfg)
	}
	a, b := run(), run()
	if a.TotalServed != b.TotalServed {
		t.Errorf("TotalServed differs: %d vs %d", a.TotalServed, b.TotalServed)
	}
	if a.AvgReplicas != b.AvgReplicas {
		t.Errorf("AvgReplicas differs: %v vs %v", a.AvgReplicas, b.AvgReplicas)
	}
	if a.Counters != b.Counters {
		t.Errorf("counters differ:\n%+v\n%+v", a.Counters, b.Counters)
	}
	pa, oa := a.BandwidthStats, b.BandwidthStats
	if pa != oa {
		t.Errorf("bandwidth stats differ: %+v vs %+v", pa, oa)
	}
}

func TestSeedChangesRun(t *testing.T) {
	gen, err := workload.NewZipf(testUniverse)
	if err != nil {
		t.Fatal(err)
	}
	cfgA := testConfig(t, gen, 3*time.Minute)
	cfgB := testConfig(t, gen, 3*time.Minute)
	cfgB.Seed = 8888
	a := mustRun(t, cfgA)
	b := mustRun(t, cfgB)
	if a.BandwidthStats == b.BandwidthStats && a.Counters == b.Counters {
		t.Error("different seeds produced identical runs")
	}
}

func TestPoissonArrivals(t *testing.T) {
	gen, err := workload.NewUniform(testUniverse)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t, gen, 4*time.Minute)
	cfg.PoissonArrivals = true
	res := mustRun(t, cfg)
	// Mean rate is preserved: ~53*40*240 = 508,800 requests +- noise.
	if res.TotalServed < 480000 || res.TotalServed > 540000 {
		t.Errorf("Poisson served = %d, want ~509k", res.TotalServed)
	}
}

// TestPoissonArrivalsPinned pins the whole output of a Poisson zipf run:
// the FNV-64a of its JSON Results, computed before the gateways left the
// event heap. It is the one pin whose gateway streams overtake each other,
// so it is the one that exercises the sorted run's insertion scan.
func TestPoissonArrivalsPinned(t *testing.T) {
	gen, err := workload.NewZipf(testUniverse)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t, gen, 4*time.Minute)
	cfg.PoissonArrivals = true
	if got, want := resultsHash(t, cfg), "2185900681074610"; got != want {
		t.Fatalf("Poisson zipf results hash %s, want %s", got, want)
	}
}

// resultsHash runs cfg and returns the FNV-64a of its JSON Results.
func resultsHash(t *testing.T, cfg Config) string {
	t.Helper()
	data, err := json.Marshal(mustRun(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(data)
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestArrivalOrderPinned pins two runs whose arrival order rests on what
// the per-hop-class arrival FIFOs must keep, with hashes computed while
// every arrival still sat in the event heap. With no hop delay each arrival
// ties the instant it was dispatched, so the sequence number alone orders
// it against the gateways and ticks of that instant. Poisson arrivals under
// a scripted link cut and a workload switch interleave overtaking gateway
// streams with severed paths and a mid-run generator change.
func TestArrivalOrderPinned(t *testing.T) {
	zipf, err := workload.NewZipf(testUniverse)
	if err != nil {
		t.Fatal(err)
	}
	hot, err := workload.NewHotPages(testUniverse, 0.1, 0.9, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"zero-hop-delay", func(c *Config) { c.Net.HopDelay = 0 }, "ac89278def35d9bc"},
		{"poisson-link-cut-switch", func(c *Config) {
			c.PoissonArrivals = true
			c.Faults = fault.Spec{Events: []fault.Event{
				{Kind: fault.LinkDown, At: time.Minute, A: 12, B: 13},
				{Kind: fault.LinkUp, At: 2 * time.Minute, A: 12, B: 13},
			}}
			c.WorkloadSwitch.At, c.WorkloadSwitch.To = 90*time.Second, hot
		}, "de1ebbd894fd4594"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(t, zipf, 3*time.Minute)
			tc.mutate(&cfg)
			if got := resultsHash(t, cfg); got != tc.want {
				t.Fatalf("results hash %s, want %s", got, tc.want)
			}
		})
	}
}

func TestMultipleRedirectors(t *testing.T) {
	gen, err := workload.NewZipf(testUniverse)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t, gen, 4*time.Minute)
	cfg.NumRedirectors = 4
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Redirectors()) != 4 {
		t.Fatalf("built %d redirectors, want 4", len(s.Redirectors()))
	}
	locs := make(map[topology.NodeID]bool)
	for _, r := range s.Redirectors() {
		locs[r.Location] = true
	}
	if len(locs) != 4 {
		t.Fatalf("redirectors share locations: %v", locs)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.InvariantsError != nil {
		t.Fatal(res.InvariantsError)
	}
	// Each redirector must answer for a share of the namespace (hash
	// partitioning), and its census must count exactly that share.
	for i, r := range s.Redirectors() {
		recorded := 0
		r.EachObject(func(object.ID) { recorded++ })
		if recorded == 0 {
			t.Errorf("redirector %d records no objects", i)
		}
		var want ReplicaCensus
		for id := object.ID(0); int(id) < cfg.Universe.Count; id++ {
			if RedirectorIndex(id, len(s.Redirectors())) != i {
				continue
			}
			n := len(r.ReplicaHosts(id, nil))
			want.TotalReplicas += n
			want.MaxReplicas = max(want.MaxReplicas, n)
			if n == 0 {
				want.Zero++
			}
		}
		if got := Census(&cfg, r); got != want {
			t.Errorf("redirector %d census %+v, want %+v from a scan of the universe", i, got, want)
		}
	}
}

func TestReplicateEverywhereBaseline(t *testing.T) {
	small := object.Universe{Count: 200, SizeBytes: 12 << 10}
	gen, err := workload.NewUniform(small)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(gen, 7)
	cfg.Universe = small
	cfg.Duration = 3 * time.Minute
	cfg.DynamicPlacement = false
	cfg.ReplicateEverywhere = true
	res := mustRun(t, cfg)
	if res.AvgReplicas != 53 {
		t.Fatalf("AvgReplicas = %v, want 53 (replica on every node)", res.AvgReplicas)
	}
}

func TestConsistencyGateCapsCategory3(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	gen, err := workload.NewHotPages(testUniverse, 0.1, 0.9, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Everything non-commuting: migrate-only.
	cfg := testConfig(t, gen, 15*time.Minute)
	cfg.Consistency = consistency.Mix{NonCommuting: 1}
	res := mustRun(t, cfg)
	if res.Counters.GeoReplications != 0 || res.Counters.LoadReplications != 0 {
		t.Errorf("replications happened despite migrate-only consistency: %+v", res.Counters)
	}
	if res.AvgReplicas != 1 {
		t.Errorf("AvgReplicas = %v, want 1 under migrate-only", res.AvgReplicas)
	}
	if res.Counters.GeoMigrations == 0 {
		t.Error("no migrations at all; placement seems inert")
	}
}

func TestPolicyBaselinesRun(t *testing.T) {
	gen, err := workload.NewZipf(testUniverse)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []protocol.Policy{protocol.PolicyRoundRobin, protocol.PolicyClosest} {
		cfg := testConfig(t, gen, 3*time.Minute)
		cfg.Policy = pol
		res := mustRun(t, cfg)
		if res.TotalServed == 0 {
			t.Errorf("policy %v served nothing", pol)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	gen, err := workload.NewUniform(testUniverse)
	if err != nil {
		t.Fatal(err)
	}
	mutations := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no workload", func(c *Config) { c.Workload = nil }},
		{"bad universe", func(c *Config) { c.Universe.Count = 0 }},
		{"bad protocol", func(c *Config) { c.Protocol.LowWatermark = 0 }},
		{"bad rate", func(c *Config) { c.NodeRequestRPS = 0 }},
		{"bad placement interval", func(c *Config) { c.PlacementInterval = 0 }},
		{"no redirectors", func(c *Config) { c.NumRedirectors = 0 }},
		{"bad duration", func(c *Config) { c.Duration = 0 }},
		{"bad bucket", func(c *Config) { c.MetricsBucket = 0 }},
		// A nil Topo means UUNET's 53 nodes, and Validate judges node IDs
		// against them, not only New.
		{"fault outside the nil topology", func(c *Config) {
			c.Topo = nil
			c.Faults.Events = []fault.Event{{Kind: fault.HostDown, At: time.Second, Node: 99}}
		}},
		{"switch before start", func(c *Config) {
			c.WorkloadSwitch.To, c.WorkloadSwitch.At = c.Workload, -time.Second
		}},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			cfg := testConfig(t, gen, time.Minute)
			m.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatal("Validate accepted an invalid config")
			}
			if _, err := New(cfg); err == nil {
				t.Fatal("invalid config accepted")
			}
		})
	}
}

// TestValidateRejectsUnschedulableRate: a rate whose spacing truncates to
// zero would make a periodic gateway fire at one instant forever, so
// Validate refuses it (and NaN) before any run starts.
func TestValidateRejectsUnschedulableRate(t *testing.T) {
	gen, err := workload.NewUniform(testUniverse)
	if err != nil {
		t.Fatal(err)
	}
	for _, rps := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 2e9, 1e9 + 1} {
		cfg := testConfig(t, gen, time.Millisecond)
		cfg.NodeRequestRPS = rps
		if err := cfg.Validate(); !errors.Is(err, ErrUnschedulableRate) {
			t.Errorf("Validate(rps=%v) = %v, want ErrUnschedulableRate", rps, err)
		}
	}
	cfg := testConfig(t, gen, time.Millisecond)
	cfg.NodeRequestRPS = 1e9 // a 1ns spacing is the finest the engine schedules
	if err := cfg.Validate(); err != nil {
		t.Errorf("Validate(rps=1e9) = %v, want nil", err)
	}
}

func TestRedirectorPlacedAtMinAvgDistance(t *testing.T) {
	gen, err := workload.NewUniform(testUniverse)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t, gen, time.Minute)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := s.routes.MinAvgDistanceNode()
	if got := s.Redirectors()[0].Location; got != want {
		t.Fatalf("redirector at %v, want min-avg-distance node %v", got, want)
	}
}
