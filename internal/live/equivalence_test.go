package live_test

import (
	"bytes"
	"context"
	"reflect"
	"testing"
	"time"

	"radar/internal/consistency"
	"radar/internal/live"
	"radar/internal/metrics"
	"radar/internal/protocol"
	"radar/internal/sim"
	"radar/internal/store"
	"radar/internal/topology"
	"radar/internal/trace"
)

// record returns a Recorder that appends every decision to events: the
// simulator's side of the live nodes' event lists.
func record(events *[]live.Event) protocol.Recorder {
	return func(e live.Event) { *events = append(*events, e) }
}

// TestSimLiveEquivalence is the headline test pinning live mode to the
// simulator: one configuration drives both the deterministic simulation
// and a 3-node loopback fleet of real HTTP servers, and the sequence of
// placement decisions — every migration, replication, drop, and refusal,
// in order, with virtual timestamps — must be identical, along with the
// request-path aggregates. The simulator is the executable spec; any
// divergence on the live side is a bug in the transport lift.
//
// Beyond the baseline, each case switches on one thing a node carries
// because sim.NewMachine builds it — a storage stack, host weights, each
// alternate seeding mode — or one thing the loop prices from the fleet's
// events: link contention, whose busy-until state moves with the order and
// instant of every charge. The replica-floor case runs the repair
// elections, whose load reports a node fetches from its peers. The
// mixed-consistency case bars half the objects from replicating: each node
// derives the §5 category table from the shared configuration, and the
// case also requires the gate to change the decision sequence. A case here
// is what licenses the absence of an ExternalFleet row for that feature in
// sim.Refusals. The traced case also writes a JSONL decision trace on both
// sides (the loop's accounting forwards a driver-paced pass's replayed
// decisions to Config.ExtraObserver) and compares the bytes: that is what
// licenses a trace writer on a driver-paced live run.
func TestSimLiveEquivalence(t *testing.T) {
	stack, err := store.ParseSpec("cache(mem:2,disk:40ms)")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		on     func(*sim.Config)
		traced bool
	}{
		{"baseline", func(*sim.Config) {}, true},
		// A small cache over a slow disk, under a client timeout tight
		// enough that the misses' serve cost times requests out.
		{"store-stack", func(c *sim.Config) { c.Store, c.ClientTimeout = stack, 30*time.Millisecond }, false},
		{"host-weights", func(c *sim.Config) { c.HostWeights = []float64{1, 2, 0.5} }, false},
		{"replicate-everywhere", func(c *sim.Config) { c.ReplicateEverywhere = true }, false},
		{"redirector-at-home", func(c *sim.Config) { c.RedirectorAtHome = true }, false},
		{"initial-placement", func(c *sim.Config) {
			// Everything starts on the far end of the line, two copies of
			// every third object.
			c.InitialPlacement = make([][]topology.NodeID, c.Universe.Count)
			for i := range c.InitialPlacement {
				c.InitialPlacement[i] = []topology.NodeID{2}
				if i%3 == 0 {
					c.InitialPlacement[i] = []topology.NodeID{2, 0}
				}
			}
		}, false},
		{"link-contention", func(c *sim.Config) { c.Net.Contention = true }, false},
		// The only case whose passes elect repair targets, over /rpc/load:
		// every object starts one copy under the floor.
		{"replica-floor", func(c *sim.Config) { c.Protocol.ReplicaFloor, c.Protocol.AvailabilityWeight = 2, 0.5 }, false},
		{"mixed-consistency", func(c *sim.Config) { c.Consistency = consistency.Mix{Static: 0.5, NonCommuting: 0.5} }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := liveConfig(t, topology.Line(3), 24, 20, 3*time.Minute)
			tc.on(&cfg.Sim)
			decisions := checkSimLiveEquivalence(t, cfg, tc.traced)
			if cfg.Sim.Consistency == (consistency.Mix{}) {
				return
			}
			// The gate has to fire for the case to pin anything: the same
			// run without it decides differently.
			var ungated []live.Event
			cfg.Sim.Consistency, cfg.Sim.ExtraObserver = consistency.Mix{}, record(&ungated)
			s, err := sim.New(cfg.Sim)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Run(); err != nil {
				t.Fatal(err)
			}
			t.Logf("ungated: %d decisions", len(ungated))
			if reflect.DeepEqual(ungated, decisions) {
				t.Errorf("the category gate changed none of %d decisions", len(decisions))
			}
		})
	}
}

// checkSimLiveEquivalence runs cfg on both sides, compares them, and
// returns the simulator's decision sequence.
func checkSimLiveEquivalence(t *testing.T, cfg live.Config, traced bool) []live.Event {
	simCfg := cfg.Sim
	var decisions []live.Event
	rec := record(&decisions)
	simCfg.ExtraObserver = rec
	var simTrace, liveTrace bytes.Buffer
	if traced {
		w := trace.NewWriter(&simTrace)
		simCfg.ExtraObserver = protocol.Recorder(func(e live.Event) { rec(e); w(e) })
		cfg.Sim.ExtraObserver = trace.NewWriter(&liveTrace)
	}
	s, err := sim.New(simCfg)
	if err != nil {
		t.Fatalf("building simulation: %v", err)
	}
	simRes, err := s.Run()
	if err != nil {
		t.Fatalf("running simulation: %v", err)
	}

	h := startHarness(t, cfg)
	liveRes, err := h.Driver.Run(context.Background())
	if err != nil {
		t.Fatalf("running live fleet: %v", err)
	}

	liveDecisions := h.Driver.Decisions()
	t.Logf("sim: %d decisions, %d served, %d timed out, max queue %d, store layers %+v",
		len(decisions), simRes.TotalServed, simRes.TimedOutRequests, simRes.MaxQueueLen, simRes.StoreLayers)
	if len(decisions) == 0 {
		t.Fatal("simulation made no placement decisions; the workload is too small to pin anything")
	}
	if len(liveDecisions) != len(decisions) {
		t.Fatalf("decision count: live %d, sim %d", len(liveDecisions), len(decisions))
	}
	for i := range decisions {
		if liveDecisions[i] != decisions[i] {
			t.Fatalf("decision %d diverges:\n  live: %+v\n  sim:  %+v", i, liveDecisions[i], decisions[i])
		}
	}

	if traced && (simTrace.Len() == 0 || !bytes.Equal(liveTrace.Bytes(), simTrace.Bytes())) {
		t.Errorf("decision trace: live wrote %d bytes, sim %d; they must be equal and non-empty", liveTrace.Len(), simTrace.Len())
	}

	// The request path must agree exactly too: same served/timed-out/
	// dropped totals, same placement counters, same final census, same
	// storage-layer counters.
	if liveRes.TotalServed != simRes.TotalServed {
		t.Errorf("TotalServed: live %d, sim %d", liveRes.TotalServed, simRes.TotalServed)
	}
	if liveRes.TimedOutRequests != simRes.TimedOutRequests {
		t.Errorf("TimedOutRequests: live %d, sim %d", liveRes.TimedOutRequests, simRes.TimedOutRequests)
	}
	if liveRes.DroppedChoices != simRes.DroppedChoices {
		t.Errorf("DroppedChoices: live %d, sim %d", liveRes.DroppedChoices, simRes.DroppedChoices)
	}
	if liveRes.Counters != simRes.Counters {
		t.Errorf("Counters: live %+v, sim %+v", liveRes.Counters, simRes.Counters)
	}
	if liveRes.AvgReplicas != simRes.AvgReplicas {
		t.Errorf("AvgReplicas: live %v, sim %v", liveRes.AvgReplicas, simRes.AvgReplicas)
	}
	if !reflect.DeepEqual(liveRes.StoreLayers, simRes.StoreLayers) {
		t.Errorf("StoreLayers:\n  live: %+v\n  sim:  %+v", liveRes.StoreLayers, simRes.StoreLayers)
	}
	if liveRes.MaxQueueLen != simRes.MaxQueueLen {
		t.Errorf("MaxQueueLen: live %d, sim %d", liveRes.MaxQueueLen, simRes.MaxQueueLen)
	}
	if len(liveRes.Replicas) != len(simRes.Replicas) {
		t.Fatalf("census series length: live %d, sim %d", len(liveRes.Replicas), len(simRes.Replicas))
	}
	for i := range simRes.Replicas {
		if liveRes.Replicas[i] != simRes.Replicas[i] {
			t.Errorf("census sample %d: live %+v, sim %+v", i, liveRes.Replicas[i], simRes.Replicas[i])
		}
	}
	if len(liveRes.MaxLoad) != len(simRes.MaxLoad) {
		t.Fatalf("max-load series length: live %d, sim %d", len(liveRes.MaxLoad), len(simRes.MaxLoad))
	}
	for i := range simRes.MaxLoad {
		if liveRes.MaxLoad[i] != simRes.MaxLoad[i] {
			t.Errorf("max-load sample %d: live %+v, sim %+v", i, liveRes.MaxLoad[i], simRes.MaxLoad[i])
		}
	}
	// What the network model prices: a charge issued late or out of order
	// moves these (and with link contention, every later transfer's delay).
	for _, series := range []struct {
		name      string
		live, sim []metrics.Point
	}{
		{"Bandwidth", liveRes.Bandwidth, simRes.Bandwidth},
		{"Latency", liveRes.Latency, simRes.Latency},
		{"LatencyP99", liveRes.LatencyP99, simRes.LatencyP99},
		{"OverheadPct", liveRes.OverheadPct, simRes.OverheadPct},
	} {
		if !reflect.DeepEqual(series.live, series.sim) {
			t.Errorf("%s series:\n  live: %v\n  sim:  %v", series.name, series.live, series.sim)
		}
	}
	if liveRes.BandwidthStats != simRes.BandwidthStats {
		t.Errorf("BandwidthStats: live %+v, sim %+v", liveRes.BandwidthStats, simRes.BandwidthStats)
	}
	if liveRes.LatencyStats != simRes.LatencyStats {
		t.Errorf("LatencyStats: live %+v, sim %+v", liveRes.LatencyStats, simRes.LatencyStats)
	}
	if liveRes.OverheadPercent != simRes.OverheadPercent {
		t.Errorf("OverheadPercent: live %v, sim %v", liveRes.OverheadPercent, simRes.OverheadPercent)
	}
	if liveRes.FailedRequests != 0 || liveRes.Failures != 0 {
		t.Errorf("healthy fleet reported %d failed requests, %d crashes", liveRes.FailedRequests, liveRes.Failures)
	}
	return decisions
}
