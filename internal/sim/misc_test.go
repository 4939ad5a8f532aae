package sim

import (
	"strings"
	"testing"
	"time"

	"radar/internal/object"
	"radar/internal/topology"
	"radar/internal/trace"
	"radar/internal/workload"
)

func TestRedirectorAtHome(t *testing.T) {
	gen, err := workload.NewUniform(testUniverse)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t, gen, 3*time.Minute)
	cfg.RedirectorAtHome = true
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s.Redirectors()); got != 53 {
		t.Fatalf("redirectors = %d, want one per node", got)
	}
	// Each object's redirector sits at its home node.
	for _, id := range []object.ID{0, 1, 52, 53, 777} {
		want := testUniverse.HomeNode(id, 53)
		if got := s.mem.redirectorFor(id).Location; got != want {
			t.Fatalf("object %d redirector at %v, want home %v", id, got, want)
		}
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.InvariantsError != nil {
		t.Fatal(res.InvariantsError)
	}
	if res.TotalServed == 0 {
		t.Fatal("no requests served")
	}
}

// TestInitialPlacementValidation: New refuses a placement of the wrong
// length, an empty replica set, and a replica on a node outside the
// topology, naming the object and the node, instead of panicking while it
// seeds.
func TestInitialPlacementValidation(t *testing.T) {
	gen, err := workload.NewUniform(testUniverse)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		edit func([][]topology.NodeID) [][]topology.NodeID
		want string
	}{
		{"short", func([][]topology.NodeID) [][]topology.NodeID { return [][]topology.NodeID{{0}} }, "covers 1 objects"},
		{"empty replica set", func(p [][]topology.NodeID) [][]topology.NodeID { p[5] = nil; return p }, "object 5"},
		{"node past the topology", func(p [][]topology.NodeID) [][]topology.NodeID { p[5] = []topology.NodeID{1, 1000}; return p }, "object 5's initial placement names node 1000"},
		{"negative node", func(p [][]topology.NodeID) [][]topology.NodeID { p[6] = []topology.NodeID{-1}; return p }, "object 6's initial placement names node -1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(t, gen, time.Minute)
			placement := make([][]topology.NodeID, testUniverse.Count)
			for i := range placement {
				placement[i] = []topology.NodeID{topology.NodeID(i % 7)}
			}
			cfg.InitialPlacement = tc.edit(placement)
			if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("New = %v, want an error naming %q", err, tc.want)
			}
		})
	}
}

func TestInitialPlacementApplied(t *testing.T) {
	small := object.Universe{Count: 60, SizeBytes: 12 << 10}
	gen, err := workload.NewUniform(small)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(gen, 7)
	cfg.Universe = small
	cfg.Duration = time.Minute
	cfg.DynamicPlacement = false
	placement := make([][]topology.NodeID, small.Count)
	for i := range placement {
		placement[i] = []topology.NodeID{3, 40} // two replicas everywhere
	}
	cfg.InitialPlacement = placement
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgReplicas != 2 {
		t.Fatalf("AvgReplicas = %v, want 2", res.AvgReplicas)
	}
	for i := 0; i < small.Count; i++ {
		if !s.Hosts()[3].Has(object.ID(i)) || !s.Hosts()[40].Has(object.ID(i)) {
			t.Fatalf("object %d not placed per InitialPlacement", i)
		}
	}
}

// TestExtraObserverReceivesEvents holds the two consumers of the one
// event stream against each other: the decision counters of the JSONL
// trace, which reaches ExtraObserver through Event.Replay, and
// Results.Counters, which the collector counts from the same Events. The
// second run is shaped like sim-churn (lossy control plane, crashes, floor
// 2, availability weight 0.5), so deferrals and repairs flow too.
func TestExtraObserverReceivesEvents(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	gen, err := workload.NewHotPages(testUniverse, 0.1, 0.9, 3)
	if err != nil {
		t.Fatal(err)
	}
	churn := testConfig(t, gen, 4*time.Minute)
	churnShaped(&churn)
	for _, run := range []struct {
		name string
		cfg  Config
	}{{"quiet", testConfig(t, gen, 8*time.Minute)}, {"churn", churn}} {
		cfg := run.cfg
		t.Run(run.name, func(t *testing.T) {
			var buf strings.Builder
			cfg.ExtraObserver = trace.NewWriter(&buf)
			c := mustRun(t, cfg).Counters
			events, err := trace.Read(strings.NewReader(buf.String()))
			if err != nil {
				t.Fatal(err)
			}
			s := trace.Summarize(events)
			c.Requests, c.FailedRequests = 0, 0 // not decisions: no event carries them
			if s.Counters != c {
				t.Errorf("trace counted %+v, metrics %+v", s.Counters, c)
			}
			if s.GeoMigrations+s.LoadMigrations == 0 || s.Drops == 0 || s.Refusals == 0 {
				t.Fatalf("too little placement activity: %+v", c)
			}
			if run.name == "churn" && (s.DeferredMoves == 0 || s.RepairReplications == 0) {
				t.Fatalf("the churn run deferred %d and repaired %d moves", s.DeferredMoves, s.RepairReplications)
			}
		})
	}
}

func TestLinkContentionRun(t *testing.T) {
	small := object.Universe{Count: 500, SizeBytes: 12 << 10}
	gen, err := workload.NewUniform(small)
	if err != nil {
		t.Fatal(err)
	}
	base := DefaultConfig(gen, 7)
	base.Universe = small
	base.Duration = 2 * time.Minute
	free, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	freeRes, err := free.Run()
	if err != nil {
		t.Fatal(err)
	}
	cont := base
	cont.Net.Contention = true
	c, err := New(cont)
	if err != nil {
		t.Fatal(err)
	}
	contRes, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Shared links can only slow responses down.
	if contRes.LatencyStats.Equilibrium < freeRes.LatencyStats.Equilibrium {
		t.Fatalf("contention latency %v below contention-free %v",
			contRes.LatencyStats.Equilibrium, freeRes.LatencyStats.Equilibrium)
	}
}

func TestSeriesTrimmedToFullBuckets(t *testing.T) {
	gen, err := workload.NewUniform(testUniverse)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t, gen, 150*time.Second) // 2.5 buckets of 1 min
	res := mustRun(t, cfg)
	if len(res.Bandwidth) > 2 {
		t.Fatalf("bandwidth series has %d buckets, want <= 2 full buckets", len(res.Bandwidth))
	}
}
