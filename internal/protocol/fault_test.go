package protocol

import (
	"errors"
	"testing"
	"time"

	"radar/internal/topology"
)

// --- Replica floor and repair replication (availability extension) ---

func TestRepairRestoresReplicaFloor(t *testing.T) {
	params := DefaultParams()
	params.ReplicaFloor = 3
	c := newCluster(t, topology.Line(6), params)
	c.red.SetReplicaFloor(params.ReplicaFloor)
	c.seed(obj, 0)
	pass := c.decide(0, 100*time.Second)
	if pass.RepairReplications != 2 {
		t.Fatalf("RepairReplications = %d, want 2 (floor 3, one replica)", pass.RepairReplications)
	}
	if got := len(c.red.ReplicaHosts(obj, nil)); got != 3 {
		t.Fatalf("replica count = %d, want floor 3", got)
	}
	// Repairs are reported as RepairMove replications, distinct from the
	// paper's geo/load moves, and never double-counted as placement moves.
	repairs := 0
	for _, m := range c.recorded(EventReplicate) {
		if m.Move == "repair" {
			repairs++
		}
	}
	if repairs != 2 {
		t.Errorf("observer saw %d RepairMove replications, want 2", repairs)
	}
	if pass.GeoReplications != 0 {
		t.Errorf("GeoReplications = %d, want 0 (repairs are not geo replications)", pass.GeoReplications)
	}
	c.checkSubsetInvariant(t)
}

func TestRepairSkipsUnregisteredObjects(t *testing.T) {
	params := DefaultParams()
	params.ReplicaFloor = 2
	c := newCluster(t, topology.Line(4), params)
	c.red.SetReplicaFloor(params.ReplicaFloor)
	// The host holds the object on disk but the redirector has no record
	// of it — the state of a crashed host before re-registration. Repair
	// must not resurrect it from here.
	c.hosts[0].SeedObject(obj)
	if pass := c.decide(0, 100*time.Second); pass.RepairReplications != 0 {
		t.Fatalf("RepairReplications = %d, want 0 for an unregistered object", pass.RepairReplications)
	}
}

func TestRepairStopsOnRefusal(t *testing.T) {
	params := DefaultParams()
	params.ReplicaFloor = 2
	c := newCluster(t, topology.Line(3), params)
	c.red.SetReplicaFloor(params.ReplicaFloor)
	c.seed(obj, 0)
	// Every candidate target is above the low watermark: repair is wanted
	// but must respect the Fig. 4 acceptance gating (best-effort floor).
	for i := 1; i < 3; i++ {
		c.loads[i].total = params.LowWatermark + 1
	}
	if pass := c.decide(0, 100*time.Second); pass.RepairReplications != 0 {
		t.Fatalf("RepairReplications = %d, want 0 (all targets loaded)", pass.RepairReplications)
	}
	if got := len(c.red.ReplicaHosts(obj, nil)); got != 1 {
		t.Fatalf("replica count = %d, want 1", got)
	}
}

func TestReplicaFloorBlocksDrops(t *testing.T) {
	c := newCluster(t, topology.Line(4), DefaultParams())
	c.red.SetReplicaFloor(2)
	c.seed(obj, 0)
	c.seed(obj, 2)
	// Cold object with two replicas: without a floor this drops (see
	// TestColdObjectDropsWhenSafe); floor 2 refuses the drop.
	if pass := c.decide(0, 100*time.Second); pass.Drops != 0 {
		t.Fatalf("Drops = %d, want 0 under floor 2", pass.Drops)
	}
	if got := len(c.red.ReplicaHosts(obj, nil)); got != 2 {
		t.Fatalf("replica count = %d, want 2", got)
	}
	c.checkSubsetInvariant(t)
}

// TestNewHostRequiresLoadReports: recipients and repair targets are
// elected from Env.LoadReport, so a host cannot be built without it.
func TestNewHostRequiresLoadReports(t *testing.T) {
	c := newCluster(t, topology.Line(3), DefaultParams())
	env := c.hosts[0].env
	env.LoadReport = nil
	if _, err := NewHost(0, DefaultParams(), env, c.loads[0]); err == nil {
		t.Fatal("NewHost accepted an Env without LoadReport")
	}
}

// --- Crash / recovery semantics ---

func TestOnCrashWipesControlState(t *testing.T) {
	c := newCluster(t, topology.Line(4), DefaultParams())
	c.seed(obj, 0)
	h := c.hosts[0]
	h.Estimator().OnAccept(10*time.Second, 50, 8)
	h.Estimator().OnShed(11*time.Second, 50, 3)
	h.OnCrash()
	if h.Estimator().upperActive || h.Estimator().lowerActive {
		t.Error("crash left load estimates active")
	}
	if got := h.Estimator().UpperActiveFor(time.Hour); got != 0 {
		t.Errorf("UpperActiveFor after crash = %v, want 0", got)
	}
	if !h.Has(obj) {
		t.Error("crash destroyed disk state (replicas must survive)")
	}
}

func TestOnRecoverGrantsMeasurementGrace(t *testing.T) {
	c := newCluster(t, topology.Line(4), DefaultParams())
	c.seed(obj, 0)
	c.seed(obj, 2)
	h := c.hosts[0]
	// A cold two-replica object normally drops (TestColdObjectDropsWhenSafe).
	// After recovery the replica is marked freshly acquired, so the first
	// placement pass has no full observation window and must not drop it
	// on pre-crash silence.
	h.OnCrash()
	h.OnRecover(90 * time.Second)
	if pass := c.decide(0, 100*time.Second); pass.Drops != 0 {
		t.Fatalf("Drops = %d, want 0 right after recovery (measurement grace)", pass.Drops)
	}
	// A full observation window later, the still-cold replica drops.
	if pass := c.decide(0, 200*time.Second); pass.Drops != 1 {
		t.Fatalf("Drops = %d, want 1 one full window after recovery", pass.Drops)
	}
	c.checkSubsetInvariant(t)
}

// --- Redirector reachability filtering (link faults) ---

func TestChooseReplicaFailsOverToReachable(t *testing.T) {
	for _, policy := range []Policy{PolicyPaper, PolicyRoundRobin, PolicyClosest} {
		r, _ := newTestRedirector(t, topology.Line(6), policy)
		r.NotifyReplicaChange(testObj, 1, 1)
		r.NotifyReplicaChange(testObj, 4, 1)
		dead := topology.NodeID(1)
		r.SetReachable(func(h topology.NodeID) bool { return h != dead })
		for g := 0; g < 6; g++ {
			h, err := r.ChooseReplica(topology.NodeID(g), testObj)
			if err != nil {
				t.Fatalf("policy %v gateway %d: %v", policy, g, err)
			}
			if h == dead {
				t.Fatalf("policy %v gateway %d: chose unreachable replica %d", policy, g, h)
			}
		}
	}
}

func TestChooseReplicaNoReachableReplica(t *testing.T) {
	r, _ := newTestRedirector(t, topology.Line(4), PolicyPaper)
	r.NotifyReplicaChange(testObj, 2, 1)
	r.SetReachable(func(topology.NodeID) bool { return false })
	_, err := r.ChooseReplica(0, testObj)
	if !errors.Is(err, ErrNoReachableReplica) {
		t.Fatalf("err = %v, want ErrNoReachableReplica", err)
	}
	// Restoring reachability restores routing with no residue.
	r.SetReachable(nil)
	if _, err := r.ChooseReplica(0, testObj); err != nil {
		t.Fatalf("routing after filter removal: %v", err)
	}
}

func TestChooseReplicaFilterManyReplicas(t *testing.T) {
	// Sixteen replicas, most unreachable: round-robin still balances over
	// the survivors, and a filtered choice allocates nothing even when all
	// sixteen are reachable.
	r, _ := newTestRedirector(t, topology.Line(16), PolicyRoundRobin)
	for i := 0; i < 16; i++ {
		r.NotifyReplicaChange(testObj, topology.NodeID(i), 1)
	}
	r.SetReachable(func(h topology.NodeID) bool { return h%5 == 0 })
	seen := make(map[topology.NodeID]int)
	for i := 0; i < 400; i++ {
		h, err := r.ChooseReplica(0, testObj)
		if err != nil {
			t.Fatal(err)
		}
		if h%5 != 0 {
			t.Fatalf("chose unreachable replica %d", h)
		}
		seen[h]++
	}
	for _, want := range []topology.NodeID{0, 5, 10, 15} {
		if seen[want] == 0 {
			t.Errorf("round-robin never chose reachable replica %d (got %v)", want, seen)
		}
	}
	r.SetReachable(func(topology.NodeID) bool { return true })
	if allocs := testing.AllocsPerRun(100, func() { _, _ = r.ChooseReplica(0, testObj) }); allocs != 0 {
		t.Errorf("a filtered choice among 16 reachable replicas made %v allocations, want 0", allocs)
	}
}

func TestRequestDropRespectsFloor(t *testing.T) {
	r, _ := newTestRedirector(t, topology.Line(4), PolicyPaper)
	r.SetReplicaFloor(2)
	r.NotifyReplicaChange(testObj, 0, 1)
	r.NotifyReplicaChange(testObj, 2, 1)
	r.NotifyReplicaChange(testObj, 3, 1)
	if !r.RequestDrop(testObj, 3) {
		t.Fatal("drop from 3 replicas refused under floor 2")
	}
	if r.RequestDrop(testObj, 2) {
		t.Fatal("drop below floor 2 allowed")
	}
	if got := len(r.ReplicaHosts(testObj, nil)); got != 2 {
		t.Fatalf("replica count = %d, want 2", got)
	}
}
