package protocol

import (
	"testing"
	"time"
)

func TestEstimatorInactivePassthrough(t *testing.T) {
	var e LoadEstimator
	if got := e.LoadForAccept(42); got != 42 {
		t.Errorf("LoadForAccept = %v, want measured 42", got)
	}
	if got := e.LoadForOffload(42); got != 42 {
		t.Errorf("LoadForOffload = %v, want measured 42", got)
	}
	if e.upperActive || e.lowerActive {
		t.Error("fresh estimator has active estimates")
	}
}

func TestEstimatorUpperAccumulates(t *testing.T) {
	var e LoadEstimator
	e.OnAccept(10*time.Second, 50, 8) // seeds from measured 50
	if got := e.LoadForAccept(50); got != 58 {
		t.Fatalf("upper after first accept = %v, want 58", got)
	}
	e.OnAccept(11*time.Second, 999 /* measured ignored once active */, 4)
	if got := e.LoadForAccept(50); got != 62 {
		t.Fatalf("upper after second accept = %v, want 62", got)
	}
	// Offload side unaffected.
	if got := e.LoadForOffload(50); got != 50 {
		t.Fatalf("LoadForOffload = %v, want measured 50", got)
	}
}

func TestEstimatorLowerAccumulatesAndClamps(t *testing.T) {
	var e LoadEstimator
	e.OnShed(10*time.Second, 20, 15)
	if got := e.LoadForOffload(20); got != 5 {
		t.Fatalf("lower = %v, want 5", got)
	}
	e.OnShed(11*time.Second, 20, 50)
	if got := e.LoadForOffload(20); got != 0 {
		t.Fatalf("lower = %v, want clamped 0", got)
	}
	if got := e.LoadForAccept(20); got != 20 {
		t.Fatalf("LoadForAccept = %v, want measured 20", got)
	}
}

func TestEstimatorRetiresAfterCleanInterval(t *testing.T) {
	var e LoadEstimator
	e.OnAccept(25*time.Second, 50, 8)
	e.OnShed(26*time.Second, 50, 5)
	// Interval [20s, 40s) contains the relocations: still dirty.
	e.OnIntervalClose(20 * time.Second)
	if !e.upperActive || !e.lowerActive {
		t.Fatal("estimates retired although relocations happened mid-interval")
	}
	// Interval [40s, 60s) started after both relocations: clean.
	e.OnIntervalClose(40 * time.Second)
	if e.upperActive || e.lowerActive {
		t.Fatal("estimates not retired after clean interval")
	}
	if got := e.LoadForAccept(33); got != 33 {
		t.Fatalf("LoadForAccept = %v, want measured", got)
	}
}

func TestEstimatorRelocationAtIntervalStartCounts(t *testing.T) {
	// An acquisition at exactly the interval start is reflected in that
	// interval's measurement, so the estimate may retire.
	var e LoadEstimator
	e.OnAccept(40*time.Second, 10, 4)
	e.OnIntervalClose(40 * time.Second)
	if e.upperActive {
		t.Fatal("estimate should retire when interval starts at acquisition time")
	}
}

func TestEstimatorNewAcceptReseedsFromMeasured(t *testing.T) {
	var e LoadEstimator
	e.OnAccept(5*time.Second, 50, 8)
	e.OnIntervalClose(10 * time.Second) // clean: retires
	e.OnAccept(35*time.Second, 60, 2)   // re-seeds from new measured load
	if got := e.LoadForAccept(60); got != 62 {
		t.Fatalf("re-seeded upper = %v, want 62", got)
	}
}

func TestEstimatorBounds(t *testing.T) {
	var e LoadEstimator
	e.OnAccept(time.Second, 40, 10)
	e.OnShed(time.Second, 40, 5)
	lo, hi := e.Bounds(40)
	if lo != 35 || hi != 50 {
		t.Fatalf("Bounds = (%v, %v), want (35, 50)", lo, hi)
	}
	var fresh LoadEstimator
	lo, hi = fresh.Bounds(40)
	if lo != 40 || hi != 40 {
		t.Fatalf("fresh Bounds = (%v, %v), want (40, 40)", lo, hi)
	}
}

// TestEstimatorSandwichInvariant mimics Figure 8b: across a run of
// accepts, sheds and interval closes, lower <= upper must always hold
// whenever both are active, and both must bracket the seeded measurement.
func TestEstimatorSandwichInvariant(t *testing.T) {
	var e LoadEstimator
	measured := 60.0
	now := time.Duration(0)
	for step := 0; step < 200; step++ {
		now += time.Second
		switch step % 5 {
		case 0:
			e.OnAccept(now, measured, float64(step%7))
		case 2:
			e.OnShed(now, measured, float64(step%5))
		case 4:
			e.OnIntervalClose(now - 3*time.Second)
		}
		lo, hi := e.Bounds(measured)
		if lo > hi {
			t.Fatalf("step %d: lower %v > upper %v", step, lo, hi)
		}
	}
}

// TestEstimatorRetirementNeedsNoTraffic pins that estimate retirement is
// driven purely by measurement-interval closes (simulated time), never by
// request arrivals: a host that stops receiving requests entirely still
// sheds its bounds once a clean interval completes. The simulator closes
// every host's interval on a global tick, so an idle host's OnIntervalClose
// sequence is exactly this.
func TestEstimatorRetirementNeedsNoTraffic(t *testing.T) {
	var e LoadEstimator
	e.OnAccept(10*time.Second, 30, 6)
	e.OnShed(12*time.Second, 30, 4)
	// No Load()/ObjectLoad() interaction, no further relocations — only
	// the periodic interval closes an idle host still gets.
	for start := 0 * time.Second; start <= 10*time.Second; start += 5 * time.Second {
		e.OnIntervalClose(start)
	}
	if e.upperActive {
		t.Error("upper estimate survived clean intervals on an idle host (dirty interval [10s,15s) retired too early?)")
	}
	// lastShed = 12s > start 10s: the shed is retired only by the next
	// close, at start 15s.
	if !e.lowerActive {
		t.Error("lower estimate retired by an interval that contained the shed")
	}
	e.OnIntervalClose(15 * time.Second)
	if e.lowerActive {
		t.Error("lower estimate survived a clean interval on an idle host")
	}
	if got := e.LoadForAccept(7); got != 7 {
		t.Errorf("LoadForAccept = %v, want measured passthrough after retirement", got)
	}
}

// TestEstimatorReset pins the crash semantics: Reset discards both
// estimates AND their timing state, so a recovered host neither carries
// stale bounds nor trips the §2.1 footnote-2 acquisition halt on
// pre-crash upperSince.
func TestEstimatorReset(t *testing.T) {
	var e LoadEstimator
	e.OnAccept(time.Minute, 80, 10)
	e.OnShed(time.Minute, 80, 10)
	if !e.upperActive || !e.lowerActive {
		t.Fatal("setup: estimates not active")
	}
	e.Reset()
	if e.upperActive || e.lowerActive {
		t.Error("Reset left estimates active")
	}
	if got := e.UpperActiveFor(2 * time.Hour); got != 0 {
		t.Errorf("UpperActiveFor after Reset = %v, want 0 (stale upperSince would halt acquisitions)", got)
	}
	if got := e.LoadForAccept(12); got != 12 {
		t.Errorf("LoadForAccept after Reset = %v, want measured 12", got)
	}
	if got := e.LoadForOffload(12); got != 12 {
		t.Errorf("LoadForOffload after Reset = %v, want measured 12", got)
	}
	// A fresh accept after Reset reseeds from measured, exactly like a
	// newly booted host.
	e.OnAccept(90*time.Minute, 20, 5)
	if got := e.LoadForAccept(20); got != 25 {
		t.Errorf("upper after post-Reset accept = %v, want 25", got)
	}
	if got := e.UpperActiveFor(91 * time.Minute); got != time.Minute {
		t.Errorf("UpperActiveFor = %v, want 1m (active since the post-Reset accept)", got)
	}
}
