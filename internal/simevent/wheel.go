package simevent

import (
	"fmt"
	"time"
)

// Stamp fixes a sharded event's position in the canonical event order the
// serial engine would have produced. The serial engine breaks same-instant
// ties by a single global sequence number — the order Schedule was called.
// A sharded run has no global call order, so shard wheels order
// same-instant events by the causal coordinates that determine the serial
// call order instead:
//
//   - SchedAt, the virtual time the event was scheduled: the serial
//     sequence number is monotone in scheduling time, so of two events
//     firing at the same instant the one scheduled earlier fires first.
//   - ParentAt, the SchedAt of the event that did the scheduling: when two
//     events were scheduled at the same instant, the serial tie-break is
//     the relative order of their scheduler events at that instant, which
//     (one causal level up) is again ordered by scheduling time.
//   - Plane and Seq, a canonical residual order: cross-shard deliveries
//     (PlaneDelivery) carry the dispatcher's global emission counter, which
//     is exactly their serial relative order; shard-local events
//     (PlaneLocal) carry a per-wheel counter, which is their serial
//     relative order within the wheel. Between planes and across wheels the
//     residual order is canonical rather than reconstructed — the
//     simulation's time grid makes such three-deep ties unobserved in
//     practice, and the bit-identity property tests would catch one.
type Stamp struct {
	SchedAt  time.Duration
	ParentAt time.Duration
	Plane    uint8
	Seq      uint64
}

// Event planes, in canonical order.
const (
	// PlaneDelivery marks a cross-shard delivery scheduled by the serial
	// dispatcher plane; Seq is the dispatcher's global counter.
	PlaneDelivery uint8 = iota
	// PlaneLocal marks an event scheduled by the shard itself; Seq is the
	// wheel's local counter.
	PlaneLocal
)

// Less reports whether a orders before b among events firing at the same
// instant.
func (a Stamp) Less(b Stamp) bool {
	if a.SchedAt != b.SchedAt {
		return a.SchedAt < b.SchedAt
	}
	if a.ParentAt != b.ParentAt {
		return a.ParentAt < b.ParentAt
	}
	if a.Plane != b.Plane {
		return a.Plane < b.Plane
	}
	return a.Seq < b.Seq
}

// wheelKey is one shard-wheel heap entry: fire time, stamp, payload slot.
type wheelKey struct {
	at   time.Duration
	st   Stamp
	slot int32
}

func (a *wheelKey) before(b *wheelKey) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.st.Less(b.st)
}

// Wheel is one shard's event queue in a sharded simulation: a 4-ary min-
// heap of (at, Stamp) keys over pooled Handler payloads, mirroring Engine's
// layout but with the stamp-based tie-break above in place of the global
// sequence number. A Wheel belongs to exactly one shard worker; it is not
// safe for concurrent use. Cross-shard pushes happen only between windows,
// while the owning worker is parked at the barrier.
type Wheel struct {
	heap  []wheelKey
	slots []Handler
	free  []int32
	now   time.Duration
	// committed is the exclusive upper bound of the last completed window:
	// every event before it has fired. A push below it would rewrite
	// committed history, so Push panics — this is the conservative-
	// lookahead safety invariant, kept as a hard assertion.
	committed time.Duration
	seq       uint64
	execAt    time.Duration
	execSt    Stamp
}

// NewWheel returns an empty wheel with its clock and committed horizon at
// zero.
func NewWheel() *Wheel { return &Wheel{} }

// Now returns the timestamp of the last executed event.
func (w *Wheel) Now() time.Duration { return w.now }

// Committed returns the exclusive upper bound of the last completed window.
func (w *Wheel) Committed() time.Duration { return w.committed }

// NextLocalSeq allocates the next PlaneLocal stamp sequence number. Like
// Engine.ReserveSeq it can be used to fix an event's tie-break position
// before the event is pushed, under the same invariant: the push must
// happen before any event with a larger key fires.
func (w *Wheel) NextLocalSeq() uint64 {
	w.seq++
	return w.seq
}

// Executing returns the key of the event currently firing; valid only
// during a Fire callback.
func (w *Wheel) Executing() (time.Duration, Stamp) { return w.execAt, w.execSt }

// PeekTime returns the fire time of the earliest pending event.
func (w *Wheel) PeekTime() (time.Duration, bool) {
	if len(w.heap) == 0 {
		return 0, false
	}
	return w.heap[0].at, true
}

// Push enqueues h to fire at absolute virtual time at under stamp st.
// Pushing into the committed past is a lookahead violation — the window
// protocol guarantees it cannot happen, so it panics rather than silently
// corrupting the canonical order.
func (w *Wheel) Push(at time.Duration, st Stamp, h Handler) {
	if at < w.committed {
		panic(fmt.Sprintf("simevent: sharded push at %v into committed past (window horizon %v)", at, w.committed))
	}
	var s int32
	if n := len(w.free); n > 0 {
		s = w.free[n-1]
		w.free = w.free[:n-1]
		w.slots[s] = h
	} else {
		s = int32(len(w.slots))
		w.slots = append(w.slots, h)
	}
	w.heap = append(w.heap, wheelKey{at: at, st: st, slot: s})
	i := len(w.heap) - 1
	entry := w.heap[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !entry.before(&w.heap[parent]) {
			break
		}
		w.heap[i] = w.heap[parent]
		i = parent
	}
	w.heap[i] = entry
}

// pop removes and returns the earliest entry.
func (w *Wheel) pop() (wheelKey, Handler) {
	h := w.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	w.heap = h
	if n > 0 {
		i := 0
		for {
			first := 4*i + 1
			if first >= n {
				break
			}
			best := first
			end := first + 4
			if end > n {
				end = n
			}
			for c := first + 1; c < end; c++ {
				if h[c].before(&h[best]) {
					best = c
				}
			}
			if !h[best].before(&last) {
				break
			}
			h[i] = h[best]
			i = best
		}
		h[i] = last
	}
	p := w.slots[top.slot]
	w.slots[top.slot] = nil
	w.free = append(w.free, top.slot)
	return top, p
}

// RunBefore fires every pending event with timestamp strictly before limit
// — one shard's share of the window [committed, limit) — and then commits
// the window, advancing the committed horizon to limit. It returns the
// number of events executed. Events pushed during execution (e.g. FCFS
// completion promotion) join the window if they land inside it.
func (w *Wheel) RunBefore(limit time.Duration) int {
	executed := 0
	for len(w.heap) > 0 && w.heap[0].at < limit {
		k, h := w.pop()
		w.now = k.at
		w.execAt, w.execSt = k.at, k.st
		h.Fire(k.at)
		executed++
	}
	if limit > w.committed {
		w.committed = limit
	}
	return executed
}
