package sim

import (
	"testing"
	"time"

	"radar/internal/fault"
	"radar/internal/object"
	"radar/internal/topology"
	"radar/internal/workload"
)

func TestWorkloadSwitch(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	zipf, err := workload.NewZipf(testUniverse)
	if err != nil {
		t.Fatal(err)
	}
	regional, err := workload.NewRegional(testUniverse, topology.UUNET(), 0.01, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t, zipf, 20*time.Minute)
	cfg.WorkloadSwitch.At = 10 * time.Minute
	cfg.WorkloadSwitch.To = regional
	res := mustRun(t, cfg)
	// After the switch the regional locality should pull bandwidth below
	// the Zipf-era level: final-quarter mean well under the level around
	// the switch point.
	around := 0.0
	for _, p := range res.Bandwidth {
		if p.T <= 10*time.Minute {
			around = p.V
		}
	}
	if res.BandwidthStats.Equilibrium >= around {
		t.Errorf("bandwidth eq %.3g not below switch-time level %.3g", res.BandwidthStats.Equilibrium, around)
	}
}

func TestHostFailureAndRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	gen, err := workload.NewUniform(testUniverse)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t, gen, 12*time.Minute)
	victim := topology.NodeID(9)
	cfg.Faults.Events = []fault.Event{
		{Kind: fault.HostDown, At: 3 * time.Minute, Node: victim},
		{Kind: fault.HostUp, At: 8 * time.Minute, Node: victim},
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 1 || res.Recoveries != 1 {
		t.Fatalf("failures/recoveries = %d/%d, want 1/1", res.Failures, res.Recoveries)
	}
	if s.Down(victim) {
		t.Error("victim still down after recovery")
	}
	// Some requests were lost to the failure (sole-replica objects lived
	// on the victim under uniform demand).
	if res.DroppedChoices == 0 {
		t.Error("no requests observed the failure")
	}
	// After recovery the victim's replicas are routable again: invariant
	// check must pass with every object having at least one replica.
	if res.InvariantsError != nil {
		t.Fatalf("invariants: %v", res.InvariantsError)
	}
	for _, red := range s.Redirectors() {
		red.EachObject(func(id object.ID) {
			if len(red.ReplicaHosts(id, nil)) == 0 {
				t.Fatalf("object %d unavailable after recovery", id)
			}
		})
	}
}

func TestFailureValidation(t *testing.T) {
	gen, err := workload.NewUniform(testUniverse)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t, gen, time.Minute)
	cfg.Topo = topology.UUNET()
	cfg.Faults.Events = []fault.Event{{Kind: fault.HostDown, At: time.Second, Node: 999}}
	if _, err := New(cfg); err == nil {
		t.Error("failure on unknown node accepted")
	}
	cfg.Faults.Events = []fault.Event{{Kind: fault.HostDown, At: -time.Second, Node: 1}}
	if _, err := New(cfg); err == nil {
		t.Error("failure at a negative time accepted")
	}
}

func TestPermanentFailureLeavesObjectsUnavailable(t *testing.T) {
	gen, err := workload.NewUniform(testUniverse)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t, gen, 5*time.Minute)
	cfg.DynamicPlacement = false // nothing re-replicates
	victim := topology.NodeID(3)
	cfg.Faults.Events = []fault.Event{{Kind: fault.HostDown, At: time.Minute, Node: victim}}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !s.Down(victim) {
		t.Fatal("victim recovered unexpectedly")
	}
	if res.DroppedChoices == 0 {
		t.Error("requests to dead sole replicas were not dropped")
	}
	// Invariants tolerate unavailable objects when failures are
	// configured.
	if res.InvariantsError != nil {
		t.Fatalf("invariants: %v", res.InvariantsError)
	}
}
