package sim

import (
	"testing"
	"time"

	"radar/internal/fault"
	"radar/internal/object"
	"radar/internal/topology"
	"radar/internal/workload"
)

// faultedConfig builds a uniform-demand configuration with a replica
// floor, the canvas for the availability properties: uniform demand
// leaves most objects at a single replica, so crashes create real
// outages and the repair machinery has work to do.
func faultedConfig(t *testing.T, dur time.Duration, seed int64) Config {
	t.Helper()
	gen, err := workload.NewUniform(testUniverse)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(gen, seed)
	cfg.Universe = testUniverse
	cfg.Duration = dur
	cfg.Protocol.ReplicaFloor = 2
	return cfg
}

// TestPropertyOutageWindowsAccountForUnavailability is the subsystem's
// core safety property: under any fault schedule, every object either
// retains at least one live replica at all times, or the violation window
// is reported in the metrics. Externally that means the outage accounting
// is self-consistent — unavailable object-seconds exist exactly when
// outage windows were recorded, windows never outlive the run, and the
// invariant checker (which tolerates zero-replica objects only under
// faults) still passes.
func TestPropertyOutageWindowsAccountForUnavailability(t *testing.T) {
	if testing.Short() {
		t.Skip("integration runs")
	}
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		cfg := faultedConfig(t, 12*time.Minute, seed)
		cfg.Faults = fault.Spec{HostMTBF: 6 * time.Minute, HostMTTR: 90 * time.Second}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.InvariantsError != nil {
			t.Fatalf("seed %d: invariants: %v", seed, res.InvariantsError)
		}
		if (res.Outages == 0) != (res.UnavailObjSecs == 0) {
			t.Errorf("seed %d: outage accounting inconsistent: %d windows, %.0f object-seconds",
				seed, res.Outages, res.UnavailObjSecs)
		}
		// Windows are bounded by the run: no object can be unavailable
		// longer than every object for the whole horizon.
		maxObjSecs := float64(cfg.Universe.Count) * cfg.Duration.Seconds()
		if res.UnavailObjSecs < 0 || res.UnavailObjSecs > maxObjSecs {
			t.Errorf("seed %d: unavailable object-seconds %.0f outside [0, %.0f]",
				seed, res.UnavailObjSecs, maxObjSecs)
		}
		if res.Failures < res.Recoveries {
			t.Errorf("seed %d: %d recoveries exceed %d failures", seed, res.Recoveries, res.Failures)
		}
		// The floor triggers repair replication (initial placement homes a
		// single copy per object, so floor 2 forces repairs regardless of
		// the crash draw).
		if res.Counters.RepairReplications == 0 {
			t.Errorf("seed %d: no repair replications despite floor 2", seed)
		}
	}
}

// TestPropertyScriptedOutageExactness pins the accounting analytically.
// With dynamic placement off, replica sets are frozen at the initial
// homing, so crashing a host takes exactly its homed objects to zero
// replicas for exactly the downtime:
//
//   - a permanent crash yields k outage windows (k = objects homed on the
//     victim) of (horizon - crash) seconds each, closed at the horizon;
//   - the same crash with recovery yields the same k windows of exactly
//     the downtime.
func TestPropertyScriptedOutageExactness(t *testing.T) {
	if testing.Short() {
		t.Skip("integration runs")
	}
	const (
		dur     = 6 * time.Minute
		crashAt = 2 * time.Minute
		recover = 4 * time.Minute
	)
	victim := topology.NodeID(9)

	permanent := faultedConfig(t, dur, 7)
	permanent.Protocol.ReplicaFloor = 0 // no repair: outages must persist
	permanent.DynamicPlacement = false
	permanent.Faults = fault.Spec{Events: []fault.Event{
		{Kind: fault.HostDown, At: crashAt, Node: victim},
	}}
	resP := mustRun(t, permanent)
	k := resP.Outages
	if k == 0 {
		t.Fatal("no objects homed on the victim; test needs a different node")
	}
	wantP := float64(k) * (dur - crashAt).Seconds()
	if resP.UnavailObjSecs != wantP {
		t.Errorf("permanent crash: unavailable object-seconds = %v, want exactly %v (%d objects x %v)",
			resP.UnavailObjSecs, wantP, k, dur-crashAt)
	}

	recovered := faultedConfig(t, dur, 7)
	recovered.Protocol.ReplicaFloor = 0
	recovered.DynamicPlacement = false
	recovered.Faults = fault.Spec{Events: []fault.Event{
		{Kind: fault.HostDown, At: crashAt, Node: victim},
		{Kind: fault.HostUp, At: recover, Node: victim},
	}}
	resR := mustRun(t, recovered)
	if resR.Outages != k {
		t.Errorf("recovered crash: %d outage windows, want %d (same placement, same victim)", resR.Outages, k)
	}
	wantR := float64(k) * (recover - crashAt).Seconds()
	if resR.UnavailObjSecs != wantR {
		t.Errorf("recovered crash: unavailable object-seconds = %v, want exactly %v (%d objects x %v)",
			resR.UnavailObjSecs, wantR, k, recover-crashAt)
	}
	if resR.Recoveries != 1 || resP.Recoveries != 0 {
		t.Errorf("recoveries = %d/%d, want 1/0", resR.Recoveries, resP.Recoveries)
	}
}

// TestPropertyRepairReachesFloor: with a replica floor and no faults,
// repair replication lifts (nearly) every object to the floor. The floor
// is best-effort — acceptance still goes through the Fig. 4 load gating,
// so a saturated system can leave a residue below the floor — but the
// below-floor census must report that residue exactly: every object is
// either at the floor or counted.
func TestPropertyRepairReachesFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	cfg := faultedConfig(t, 8*time.Minute, 11)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.InvariantsError != nil {
		t.Fatalf("invariants: %v", res.InvariantsError)
	}
	below := 0
	for _, red := range s.Redirectors() {
		red.EachObject(func(id object.ID) {
			if len(red.ReplicaHosts(id, nil)) < 2 {
				below++
			}
		})
	}
	// Uniform demand keeps acceptors scarce (most hosts sit near the low
	// watermark), yet repair must still reach the floor for ≥99% of
	// objects within the run.
	if below > cfg.Universe.Count/100 {
		t.Errorf("%d of %d objects below floor 2 at end of run", below, cfg.Universe.Count)
	}
	if len(res.BelowFloor) == 0 {
		t.Fatal("no below-floor census recorded despite floor 2")
	}
	// The census is truthful: its final sample counts exactly the objects
	// still below the floor.
	if final := res.BelowFloor[len(res.BelowFloor)-1]; int(final.V) != below {
		t.Errorf("final below-floor census = %v, want %d (the objects actually below floor)", final.V, below)
	}
	if res.Counters.RepairReplications < int64(cfg.Universe.Count)*9/10 {
		t.Errorf("only %d repair replications for %d single-homed objects", res.Counters.RepairReplications, cfg.Universe.Count)
	}
}

// TestPropertyFaultedRunDeterminism: a nonzero-fault run is bit-identical
// across repeats for a fixed seed — the acceptance criterion that fault
// injection preserves the simulator's reproducibility contract.
func TestPropertyFaultedRunDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("integration runs")
	}
	run := func() *Results {
		cfg := faultedConfig(t, 10*time.Minute, 3)
		cfg.Faults = fault.Spec{
			Events: []fault.Event{
				{Kind: fault.HostDown, At: 3 * time.Minute, Node: 9},
				{Kind: fault.HostUp, At: 7 * time.Minute, Node: 9},
			},
			HostMTBF: 15 * time.Minute,
			HostMTTR: time.Minute,
		}
		return mustRun(t, cfg)
	}
	a, b := run(), run()
	if a.TotalServed != b.TotalServed ||
		a.FailedRequests != b.FailedRequests ||
		a.Outages != b.Outages ||
		a.UnavailObjSecs != b.UnavailObjSecs ||
		a.BelowFloorObjSecs != b.BelowFloorObjSecs ||
		a.RepairByteHops != b.RepairByteHops ||
		a.Failures != b.Failures ||
		a.Counters != b.Counters ||
		a.BandwidthStats != b.BandwidthStats ||
		a.LatencyStats != b.LatencyStats {
		t.Errorf("faulted runs with equal seeds diverge:\n%+v\nvs\n%+v", a, b)
	}
}

// TestPropertyFutureFaultsAreInert: a fault schedule whose every event
// lies beyond the horizon marks the run as faulted but must not perturb a
// single metric — the fault path is pay-for-what-fires.
func TestPropertyFutureFaultsAreInert(t *testing.T) {
	if testing.Short() {
		t.Skip("integration runs")
	}
	gen, err := workload.NewUniform(testUniverse)
	if err != nil {
		t.Fatal(err)
	}
	base := testConfig(t, gen, 6*time.Minute)
	clean := mustRun(t, base)

	faulted := testConfig(t, gen, 6*time.Minute)
	faulted.Faults = fault.Spec{Events: []fault.Event{
		{Kind: fault.HostDown, At: 7 * time.Minute, Node: 2},
	}}
	fres := mustRun(t, faulted)

	if !fres.FaultsEnabled || clean.FaultsEnabled {
		t.Fatalf("FaultsEnabled = %v/%v, want true/false", fres.FaultsEnabled, clean.FaultsEnabled)
	}
	if clean.TotalServed != fres.TotalServed ||
		clean.Counters != fres.Counters ||
		clean.BandwidthStats != fres.BandwidthStats ||
		clean.LatencyStats != fres.LatencyStats ||
		clean.AvgReplicas != fres.AvgReplicas ||
		fres.Failures != 0 || fres.FailedRequests != 0 || fres.Outages != 0 {
		t.Errorf("future-only fault schedule perturbed the run:\nclean %+v\nfaulted %+v", clean, fres)
	}
}
