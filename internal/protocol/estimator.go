package protocol

import (
	"time"

	"radar/internal/object"
)

// LoadSource provides a host's measured loads (paper §2.1): the rate of
// serviced requests averaged over the last completed measurement interval,
// total and attributed per object. The simulator's server model implements
// it; tests use fixtures.
type LoadSource interface {
	// Load returns the host's measured total load in requests/sec.
	Load() float64
	// ObjectLoad returns the fraction of the measured load attributed to
	// the given object, in requests/sec. Implementations return 0 for
	// objects with no measurements yet.
	ObjectLoad(id object.ID) float64
}

// LoadEstimator maintains the upper- and lower-limit load estimates of
// §2.1: a load measurement taken right after an object relocation does not
// reflect the change yet, so after accepting an object a host substitutes
// an upper-limit estimate (actual load at acceptance plus the Theorem 2/4
// bound per accepted object) when deciding whether to honor further
// CreateObj requests, and an offloading host symmetrically uses a
// lower-limit estimate (actual minus the Theorem 1/3 bound per shed
// object). Each estimate reverts to actual measurements once a measurement
// interval that started after the last relocation completes.
type LoadEstimator struct {
	upper       float64
	upperActive bool
	upperSince  time.Duration
	lastAccept  time.Duration

	lower       float64
	lowerActive bool
	lastShed    time.Duration
}

// OnAccept records that the host accepted an object at time now whose
// upper-bound load contribution is delta (4·ℓ/aff, Theorems 2/4).
// measured is the host's current measured load, used to seed the estimate.
func (e *LoadEstimator) OnAccept(now time.Duration, measured, delta float64) {
	if !e.upperActive {
		e.upper = measured
		e.upperActive = true
		e.upperSince = now
	}
	e.upper += delta
	e.lastAccept = now
}

// OnShed records that the host migrated or replicated an object away at
// time now; delta is the maximum load decrease (Theorems 1/3). measured
// seeds the estimate on first use.
func (e *LoadEstimator) OnShed(now time.Duration, measured, delta float64) {
	if !e.lowerActive {
		e.lower = measured
		e.lowerActive = true
	}
	e.lower -= delta
	if e.lower < 0 {
		e.lower = 0
	}
	e.lastShed = now
}

// OnIntervalClose tells the estimator that the measurement interval which
// began at start has completed. An estimate whose last relocation happened
// at or before start is now reflected in actual measurements and is
// retired.
func (e *LoadEstimator) OnIntervalClose(start time.Duration) {
	if e.upperActive && e.lastAccept <= start {
		e.upperActive = false
	}
	if e.lowerActive && e.lastShed <= start {
		e.lowerActive = false
	}
}

// Reset discards both estimates and their timing state — the model of a
// host crash wiping in-memory state. Without it a crashed host would come
// back still carrying pre-crash upper/lower bounds that no measurement
// interval of the downtime can retire coherently (stale bounds leak).
func (e *LoadEstimator) Reset() { *e = LoadEstimator{} }

// LoadForAccept returns the load a host must use when deciding whether to
// accept objects from other hosts: the upper-limit estimate while active,
// the measured load otherwise.
func (e *LoadEstimator) LoadForAccept(measured float64) float64 {
	if e.upperActive {
		return e.upper
	}
	return measured
}

// LoadForOffload returns the load a host must use when deciding whether it
// needs to offload: the lower-limit estimate while active, the measured
// load otherwise.
func (e *LoadEstimator) LoadForOffload(measured float64) float64 {
	if e.lowerActive {
		return e.lower
	}
	return measured
}

// UpperActiveFor returns how long the upper estimate has been continuously
// active; zero when inactive. Hosts use it to halt relocations so a clean
// measurement interval can complete when back-to-back acquisitions would
// otherwise keep the estimate alive forever (paper §2.1 footnote 2).
func (e *LoadEstimator) UpperActiveFor(now time.Duration) time.Duration {
	if !e.upperActive {
		return 0
	}
	return now - e.upperSince
}

// Bounds returns the current (lower, upper) estimates with measured
// substituted for inactive sides; used for the Figure 8b trace.
func (e *LoadEstimator) Bounds(measured float64) (lower, upper float64) {
	return e.LoadForOffload(measured), e.LoadForAccept(measured)
}
