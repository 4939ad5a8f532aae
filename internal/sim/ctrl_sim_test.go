package sim

import (
	"testing"
	"time"

	"radar/internal/fault"
	"radar/internal/protocol"
	"radar/internal/workload"
)

// lossyConfig builds a Zipf run with message faults armed.
func lossyConfig(t *testing.T, dur time.Duration, seed int64, drop float64) Config {
	t.Helper()
	gen, err := workload.NewZipf(testUniverse)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(gen, seed)
	cfg.Universe = testUniverse
	cfg.Duration = dur
	cfg.Protocol.ReplicaFloor = 2
	cfg.Faults = fault.Spec{MsgDrop: drop, MsgDup: 0.05, MsgDelay: 20 * time.Millisecond}
	return cfg
}

// TestPropertyCtrlZeroTermsBitIdentical: a fault spec whose message-fault
// terms are all zero (the parse of "drop:0") must not arm the control
// plane — the run stays byte-identical to one with no schedule at all.
// This is the subsystem's pay-for-what-you-use contract.
func TestPropertyCtrlZeroTermsBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("integration runs")
	}
	gen, err := workload.NewZipf(testUniverse)
	if err != nil {
		t.Fatal(err)
	}
	base := testConfig(t, gen, 8*time.Minute)
	clean := mustRun(t, base)

	spec, err := fault.ParseSchedule("drop:0; dup:0; cdelay:0s")
	if err != nil {
		t.Fatal(err)
	}
	zeroed := testConfig(t, gen, 8*time.Minute)
	zeroed.Faults = spec
	zres := mustRun(t, zeroed)

	if zres.CtrlEnabled || clean.CtrlEnabled {
		t.Fatalf("CtrlEnabled = %v/%v, want false/false", zres.CtrlEnabled, clean.CtrlEnabled)
	}
	if clean.TotalServed != zres.TotalServed ||
		clean.Counters != zres.Counters ||
		clean.BandwidthStats != zres.BandwidthStats ||
		clean.LatencyStats != zres.LatencyStats ||
		clean.AvgReplicas != zres.AvgReplicas ||
		zres.CtrlStats != clean.CtrlStats ||
		zres.Counters.DeferredMoves != 0 {
		t.Errorf("zero-valued message-fault terms perturbed the run:\nclean %+v\nzeroed %+v", clean, zres)
	}
}

// TestPropertyCtrlInvariantAtReconcileBoundaries is the tentpole's safety
// property: under any message drop rate, the redirector invariant
// (recorded replica set ⊆ live replicas with matching affinities) holds at
// every reconciliation boundary. Mid-interval a lost decrement-notify may
// leave a stale recorded affinity, but each anti-entropy pass must fully
// heal the divergence — probes run 1ns after every pass and at the end.
func TestPropertyCtrlInvariantAtReconcileBoundaries(t *testing.T) {
	if testing.Short() {
		t.Skip("integration runs")
	}
	for _, drop := range []float64{0.05, 0.2, 0.5, 0.9} {
		cfg := lossyConfig(t, 10*time.Minute, 5, drop)
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if s.ctrl == nil {
			t.Fatalf("drop %v: control plane not armed", drop)
		}
		// Probes fire one nanosecond after each reconcile tick; the tick and
		// same-timestamp placement runs execute first (scheduled earlier), so
		// the probe observes the post-reconciliation state.
		interval := cfg.PlacementInterval
		var probeErr error
		probes := 0
		for at := interval + time.Nanosecond; at <= cfg.Duration; at += interval {
			if err := s.engine.Schedule(at, func(time.Duration) {
				probes++
				if e := s.mem.checkInvariants(); e != nil && probeErr == nil {
					probeErr = e
				}
			}); err != nil {
				t.Fatal(err)
			}
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if probes == 0 {
			t.Fatalf("drop %v: no reconcile-boundary probes fired", drop)
		}
		if probeErr != nil {
			t.Errorf("drop %v: invariant violated after a reconciliation pass: %v", drop, probeErr)
		}
		if res.InvariantsError != nil {
			t.Errorf("drop %v: final invariants: %v", drop, res.InvariantsError)
		}
		if !res.CtrlEnabled {
			t.Errorf("drop %v: results not flagged CtrlEnabled", drop)
		}
	}
}

// TestPropertyLossyRunDeterminism: a lossy-control-plane run is
// bit-identical across repeats for a fixed seed — message faults draw from
// their own reserved stream and must preserve the reproducibility contract.
func TestPropertyLossyRunDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("integration runs")
	}
	run := func() *Results {
		return mustRun(t, lossyConfig(t, 10*time.Minute, 3, 0.2))
	}
	a, b := run(), run()
	if a.TotalServed != b.TotalServed ||
		a.CtrlStats != b.CtrlStats ||
		a.OrphansHealed != b.OrphansHealed ||
		a.StaleAffinityRepaired != b.StaleAffinityRepaired ||
		a.GhostsRemoved != b.GhostsRemoved ||
		a.ReconcileByteHops != b.ReconcileByteHops ||
		a.Counters != b.Counters ||
		a.BandwidthStats != b.BandwidthStats ||
		a.LatencyStats != b.LatencyStats {
		t.Errorf("lossy runs with equal seeds diverge:\n%+v\nvs\n%+v", a, b)
	}
}

// TestCtrlLossAccountingConsistent exercises a heavily lossy run and pins
// the bookkeeping relations: lost handshakes defer placement moves (never
// silently drop them), deferred completions cannot exceed deferrals, the
// per-host counters agree with the collector's, and reconciliation both
// runs and heals.
func TestCtrlLossAccountingConsistent(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	cfg := lossyConfig(t, 10*time.Minute, 42, 0.2)
	cfg.Faults.MsgDup = 0.1
	res := mustRun(t, cfg)

	st := res.CtrlStats
	if st.Attempts == 0 || st.Retries == 0 || st.Timeouts == 0 || st.DroppedLegs == 0 || st.DupLegs == 0 {
		t.Fatalf("drop 0.2 produced no control-plane activity: %+v", st)
	}
	if st.Lost == 0 || st.NotifiesLost == 0 {
		t.Fatalf("drop 0.2 lost no RPCs/notifies: %+v", st)
	}
	var hostDeferred, hostCompleted, hostLost int64
	for _, hs := range res.HostStats {
		hostDeferred += hs.DeferredMoves
		hostCompleted += hs.DeferredCompleted
		hostLost += hs.CreateLost
	}
	if hostDeferred != res.Counters.DeferredMoves {
		t.Errorf("host deferral counters %d disagree with collector %d", hostDeferred, res.Counters.DeferredMoves)
	}
	if hostCompleted > hostDeferred {
		t.Errorf("%d deferred completions exceed %d deferrals", hostCompleted, hostDeferred)
	}
	if hostLost < hostDeferred {
		t.Errorf("%d deferrals exceed %d lost handshakes (every deferral needs a loss)", hostDeferred, hostLost)
	}
	if res.ReconcileRuns == 0 {
		t.Error("no reconciliation passes in a 10-minute run")
	}
	if st.NotifiesLost > 0 && res.OrphansHealed == 0 {
		t.Errorf("%d notifies lost but no orphans healed", st.NotifiesLost)
	}
	if res.ReconcileByteHops <= 0 {
		t.Errorf("reconciliation charged no digest traffic: %d", res.ReconcileByteHops)
	}
}

// TestReconcileAllocFree: once a lossy run has settled, an anti-entropy
// pass reads every host's objects and every redirector's records in place
// and allocates nothing.
func TestReconcileAllocFree(t *testing.T) {
	cfg := lossyConfig(t, 3*time.Minute, 5, 0.2)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	s.reconcile(cfg.Duration) // heals what the last interval lost, sizes the scratch
	if allocs := testing.AllocsPerRun(5, func() { s.reconcile(cfg.Duration) }); allocs != 0 {
		t.Fatalf("a reconcile pass over a settled fleet allocates %v times, want 0", allocs)
	}
	if s.ctrl.ghostsRemoved != 0 {
		t.Fatalf("%d ghost records removed from a fleet that never had one", s.ctrl.ghostsRemoved)
	}
}

// TestDownTargetSpendsNothingOnThePlane: the in-memory fleet answers a
// handshake to a crashed host CreateDown before the lossy plane sees it.
// No attempt or leg is counted and no token is allocated, and the control
// stream draws nothing: a twin fleet that never made the call stays in
// step through the handshakes that follow.
func TestDownTargetSpendsNothingOnThePlane(t *testing.T) {
	cfg := lossyConfig(t, time.Minute, 5, 0.5)
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a.down[1] = true
	before := a.ctrl.plane.Stats()
	req := protocol.CreateObjRequest{From: 0, To: 1, Method: protocol.Replicate, Object: 3, UnitLoad: 1, SrcAff: 1}
	if status, tok, at := a.mem.sendCreateObj(time.Second, req, 0); status != protocol.CreateDown || tok != 0 || at != time.Second {
		t.Fatalf("handshake to a down host: (%d, %d, %v), want (CreateDown, 0, 1s)", status, tok, at)
	}
	if got := a.ctrl.plane.Stats(); got != before {
		t.Fatalf("plane stats moved from %+v to %+v", before, got)
	}
	req.To = 2
	for i := 0; i < 8; i++ {
		now := time.Duration(2+i) * time.Second
		sa, ta, da := a.mem.sendCreateObj(now, req, 0)
		sb, tb, db := b.mem.sendCreateObj(now, req, 0)
		if sa != sb || ta != tb || da != db {
			t.Fatalf("handshake %d: (%d, %d, %v) after the down call, (%d, %d, %v) without it", i, sa, ta, da, sb, tb, db)
		}
	}
	if sa, sb := a.ctrl.plane.Stats(), b.ctrl.plane.Stats(); sa != sb {
		t.Fatalf("plane stats %+v after the down call, %+v without it", sa, sb)
	}
}
