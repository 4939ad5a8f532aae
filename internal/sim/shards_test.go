package sim

import (
	"reflect"
	"testing"
	"time"

	"radar/internal/consistency"
	"radar/internal/fault"
	"radar/internal/topology"
	"radar/internal/workload"
)

// shardVariants are the scenario mutations the bit-identity property is
// checked under: the plain dynamic-placement run, a hostile run with
// crash/link faults plus a lossy control plane, the transit-stub
// topology the bigrun benchmark uses, and the §5 category gate, which the
// placement passes of every shard consult.
func shardVariants(t *testing.T) []struct {
	name   string
	mutate func(*Config)
} {
	t.Helper()
	return []struct {
		name   string
		mutate func(*Config)
	}{
		{"uunet-dynamic", func(*Config) {}},
		{"uunet-faults-lossy-ctrl", func(c *Config) {
			c.Protocol.ReplicaFloor = 2
			c.Faults = fault.Spec{
				HostMTBF: 4 * time.Minute,
				HostMTTR: 60 * time.Second,
				LinkMTBF: 5 * time.Minute,
				LinkMTTR: 45 * time.Second,
				MsgDrop:  0.2,
				MsgDup:   0.05,
			}
		}},
		{"transit-stub", func(c *Config) {
			c.Topo = topology.TransitStub(4, 2, 3) // 32 nodes, 4 regions
		}},
		{"uunet-mixed", func(c *Config) {
			c.Consistency = consistency.Mix{Static: 0.5, NonCommuting: 0.5}
		}},
	}
}

func shardTestConfig(t *testing.T) Config {
	t.Helper()
	gen, err := workload.NewHotPages(testUniverse, 0.1, 0.9, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(gen, 11)
	cfg.Universe = testUniverse
	cfg.Duration = 2 * time.Minute
	return cfg
}

func runShards(t *testing.T, cfg Config, shards int) *Results {
	t.Helper()
	cfg.Shards = shards
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestShardedBitIdenticalToSerial is the sharded engine's core property:
// at every shard count, under faults and a lossy control plane, on both
// backbones, the full Results struct — floating-point latency series,
// per-host stats, failure counters, everything — is deeply equal to the
// serial engine's.
func TestShardedBitIdenticalToSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("integration runs")
	}
	for _, v := range shardVariants(t) {
		v := v
		t.Run(v.name, func(t *testing.T) {
			cfg := shardTestConfig(t)
			v.mutate(&cfg)
			serial := runShards(t, cfg, 0)
			if cfg.Consistency != (consistency.Mix{}) {
				// The variant pins the gate only if the gate fires.
				plain := cfg
				plain.Consistency = consistency.Mix{}
				if got := runShards(t, plain, 0).Counters; got == serial.Counters {
					t.Fatalf("the category gate changed no counter: %+v", got)
				}
			}
			for _, k := range []int{2, 4, 8} {
				got := runShards(t, cfg, k)
				if !reflect.DeepEqual(serial, got) {
					t.Errorf("shards=%d diverges from serial: serial=%+v sharded=%+v", k, abridge(serial), abridge(got))
				}
			}
		})
	}
}

// abridge trims the bulky series out of a Results copy so divergence
// reports stay readable.
func abridge(r *Results) Results {
	c := *r
	c.Bandwidth, c.Latency, c.LatencyP99, c.OverheadPct = nil, nil, nil, nil
	c.MaxLoad, c.HostLoad, c.Replicas, c.FailedSeries, c.BelowFloor = nil, nil, nil, nil, nil
	c.HostStats = nil
	return c
}

// TestShardedQuantumBitIdentical forces very short windows (many more
// barriers than global events require) and checks results are still
// bit-identical: the barrier protocol itself must not be observable.
func TestShardedQuantumBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("integration runs")
	}
	cfg := shardTestConfig(t)
	cfg.Duration = time.Minute
	serial := runShards(t, cfg, 0)
	for _, q := range []time.Duration{75 * time.Millisecond, time.Second} {
		cfg.quantum = q
		got := runShards(t, cfg, 4)
		if !reflect.DeepEqual(serial, got) {
			t.Errorf("quantum=%v diverges from serial", q)
		}
	}
}

// TestShardsSerialPathUnchanged checks Shards=1 and Shards=0 take the
// serial engine (no lanes, no lookahead) and agree with each other.
func TestShardsSerialPathUnchanged(t *testing.T) {
	cfg := shardTestConfig(t)
	cfg.Duration = 30 * time.Second
	for _, k := range []int{0, 1} {
		cfg.Shards = k
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if s.sharded || s.lookahead != 0 || s.shardOf != nil {
			t.Fatalf("Shards=%d built a sharded engine", k)
		}
	}
}

// TestShardAssignmentsPartition checks the node partition is a valid,
// deterministic, region-aligned cover with non-empty shards.
func TestShardAssignmentsPartition(t *testing.T) {
	topos := map[string]*topology.Topology{
		"transit-stub": topology.TransitStub(4, 4, 15), // 256 nodes
		"two-clusters": topology.TwoClusters(6),
		"line":         topology.Line(9),
	}
	for name, topo := range topos {
		for _, k := range []int{2, 3, 4, 8} {
			if k > topo.NumNodes() {
				continue
			}
			a := shardAssignments(topo, k)
			b := shardAssignments(topo, k)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s k=%d: assignment not deterministic", name, k)
			}
			count := make([]int, k)
			for node, sh := range a {
				if sh < 0 || sh >= k {
					t.Fatalf("%s k=%d: node %d in shard %d", name, node, k, sh)
				}
				count[sh]++
			}
			for sh, c := range count {
				if c == 0 {
					t.Errorf("%s k=%d: shard %d empty", name, k, sh)
				}
			}
		}
	}
	// Region alignment: with one shard per region, every region must be
	// whole (this is what maximizes the lookahead bound).
	ts := topology.TransitStub(4, 2, 3)
	a := shardAssignments(ts, 4)
	for _, r := range topology.Regions() {
		ids := ts.NodesInRegion(r)
		for _, id := range ids {
			if a[id] != a[ids[0]] {
				t.Errorf("region %v split across shards at k=4", r)
			}
		}
	}
}

// TestLookaheadBoundsCrossShardDeliveries verifies the conservative
// lookahead invariant end to end: every cross-shard request delivery
// (gateway and chosen host in different shards) is timestamped at least
// W = minCrossShardHops × HopDelay after its dispatch time, because the
// redirector detour can only lengthen the g→h path (triangle
// inequality on hop distances).
func TestLookaheadBoundsCrossShardDeliveries(t *testing.T) {
	cfg := shardTestConfig(t)
	cfg.Topo = topology.TransitStub(4, 2, 3)
	cfg.Duration = 30 * time.Second
	cfg.Shards = 4
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.lanes) != 4 {
		t.Fatalf("got %d shards", len(s.lanes))
	}
	w := s.lookahead
	if w <= 0 {
		t.Fatalf("lookahead %v, want positive on a region-sparse graph", w)
	}
	assign := s.shardOf
	hop := cfg.Net.HopDelay
	n := cfg.Topo.NumNodes()
	// The delivery timestamp for (g, red, h) is
	// t0 + (d(g,red)+d(red,h))·hop >= t0 + d(g,h)·hop >= t0 + W whenever
	// shard(g) != shard(h). Check the per-pair bound directly.
	for g := 0; g < n; g++ {
		for h := 0; h < n; h++ {
			if assign[g] == assign[h] {
				continue
			}
			d := time.Duration(s.routes.Distance(topology.NodeID(g), topology.NodeID(h))) * hop
			if d < w {
				t.Fatalf("cross-shard pair (%d,%d) delay %v below lookahead %v", g, h, d, w)
			}
		}
	}
}

// TestSerialOutageCloseDeterministic regression-tests the horizon-close
// path for outage windows: the windows still open at the end of a run
// accumulate into a floating-point sum, so they must close in sorted
// object order, not map order. (Found by the bit-identity property test:
// repeated serial runs disagreed in the low bits of UnavailObjSecs.)
func TestSerialOutageCloseDeterministic(t *testing.T) {
	mk := func() float64 {
		cfg := shardTestConfig(t)
		cfg.Protocol.ReplicaFloor = 2
		cfg.Faults = fault.Spec{
			HostMTBF: 4 * time.Minute,
			HostMTTR: 60 * time.Second,
			LinkMTBF: 5 * time.Minute,
			LinkMTTR: 45 * time.Second,
		}
		return runShards(t, cfg, 0).UnavailObjSecs
	}
	a, b := mk(), mk()
	if a != b {
		t.Errorf("serial runs disagree: %.10f vs %.10f", a, b)
	}
}

// TestShardedBarrierHammer drives many short windows through the barrier
// loop; its real teeth come from the CI race job, where it runs under
// -race and any unsynchronized lane access between the coordinator and
// the shard workers is flagged.
func TestShardedBarrierHammer(t *testing.T) {
	cfg := shardTestConfig(t)
	cfg.Duration = 20 * time.Second
	cfg.quantum = 20 * time.Millisecond // ~1000 windows
	cfg.Shards = 8
	serial := cfg
	serial.Shards = 0
	serial.quantum = 0
	want := runShards(t, serial, 0)
	got := runShards(t, cfg, cfg.Shards)
	if !reflect.DeepEqual(want, got) {
		t.Error("hammered sharded run diverges from serial")
	}
}

// TestShardedRefusesIncompatibleSubsystems checks validation rejects the
// combinations the sharded engine cannot partition.
func TestShardedRefusesIncompatibleSubsystems(t *testing.T) {
	base := shardTestConfig(t)
	base.Shards = 4

	cfg := base
	cfg.Net.Contention = true
	if _, err := New(cfg); err == nil {
		t.Error("sharded + contention accepted")
	}

	for _, k := range []int{-1, -2} {
		cfg = base
		cfg.Shards = k
		if _, err := New(cfg); err == nil {
			t.Errorf("Shards=%d accepted", k)
		}
	}
}
