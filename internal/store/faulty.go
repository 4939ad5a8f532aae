package store

import (
	"time"

	"radar/internal/fault"
	"radar/internal/object"
)

// Faulty injects backend-level crash/degrade faults into the wrapped
// store. A precomputed down/up timeline — expanded at build time by
// internal/fault from MTBF/MTTR exponentials on a reserved PRNG sub-stream
// — drives the backend through availability windows; the store consults
// the timeline lazily as operations arrive, so behavior depends only on
// the seed and the operation sequence, never on scheduling.
//
// Fault semantics mirror a cache or disk shelf losing power, not a host
// crash (internal/sim models those separately): a down-transition wipes
// the backend's contents; creates during an outage are acknowledged but
// lost (LostWrites); serves during an outage, or of a replica lost to one,
// are answered by refetching from the origin at a fixed penalty
// (Refetches), re-establishing the replica when the backend is up. The
// surrounding protocol never sees an error — storage faults surface as
// latency and as divergence for Mirror's read-repair to heal.
type Faulty struct {
	inner    ReplicaStore
	penalty  time.Duration
	timeline []fault.Event // alternating HostDown/HostUp, sorted by At
	next     int           // first timeline event not yet applied
	down     bool
	stats    LayerStats
}

// NewFaulty wraps inner with the given outage timeline and refetch
// penalty. The timeline must alternate down/up in nondecreasing time
// order, as produced by fault.Cycles.
func NewFaulty(inner ReplicaStore, timeline []fault.Event, penalty time.Duration) *Faulty {
	return &Faulty{inner: inner, penalty: penalty, timeline: timeline}
}

// advance applies every timeline transition at or before now.
func (f *Faulty) advance(now time.Duration) {
	for f.next < len(f.timeline) && f.timeline[f.next].At <= now {
		e := f.timeline[f.next]
		f.next++
		if e.Kind == fault.HostDown {
			if !f.down {
				f.down = true
				f.stats.Crashes++
				f.inner.Clear(e.At)
			}
		} else {
			f.down = false
		}
	}
}

// Create implements ReplicaStore. During an outage the write is
// acknowledged (the upstream protocol has already committed to the
// placement) but the data is lost; a later serve refetches it.
func (f *Faulty) Create(now time.Duration, id object.ID) bool {
	f.advance(now)
	if f.down {
		f.stats.Creates++
		f.stats.LostWrites++
		return true
	}
	if f.inner.Create(now, id) {
		f.stats.Creates++
		return true
	}
	return false
}

// Drop implements ReplicaStore.
func (f *Faulty) Drop(now time.Duration, id object.ID) {
	f.advance(now)
	f.stats.Drops++
	f.inner.Drop(now, id)
}

// Contains implements ReplicaStore: a down backend serves nothing.
func (f *Faulty) Contains(id object.ID) bool {
	return !f.down && f.inner.Contains(id)
}

// ServeCost implements ReplicaStore: reads of lost or unavailable
// replicas pay the refetch penalty; the replica is re-established when
// the backend is up.
func (f *Faulty) ServeCost(now time.Duration, id object.ID) time.Duration {
	f.advance(now)
	f.stats.Serves++
	if f.down {
		f.stats.Refetches++
		f.stats.CostNanos += int64(f.penalty)
		return f.penalty
	}
	if !f.inner.Contains(id) {
		f.stats.Refetches++
		f.stats.CostNanos += int64(f.penalty)
		f.inner.Create(now, id)
		return f.penalty
	}
	cost := f.inner.ServeCost(now, id)
	f.stats.CostNanos += int64(cost)
	return cost
}

// BytesUsed implements ReplicaStore.
func (f *Faulty) BytesUsed() int64 { return f.inner.BytesUsed() }

// Replicas implements ReplicaStore.
func (f *Faulty) Replicas() int { return f.inner.Replicas() }

// Clear implements ReplicaStore.
func (f *Faulty) Clear(now time.Duration) { f.inner.Clear(now) }

// Stats implements ReplicaStore.
func (f *Faulty) Stats(buf []LayerStats) []LayerStats {
	s := f.stats
	s.Label = "faulty"
	s.Replicas = int64(f.inner.Replicas())
	s.BytesUsed = f.inner.BytesUsed()
	buf = append(buf, s)
	return f.inner.Stats(buf)
}
