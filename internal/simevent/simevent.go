// Package simevent provides a deterministic discrete-event simulation
// engine: a virtual clock and a priority queue of timestamped events.
//
// Events scheduled for the same instant fire in the order they were
// scheduled (FIFO tie-breaking by sequence number), which makes every
// simulation run reproducible from its inputs alone.
//
// The queue is a value-based 4-ary heap of compact (time, seq) keys with
// event payloads held in a recycled slot arena: scheduling an event
// appends to contiguous backing slices instead of allocating heap nodes,
// so the steady-state scheduling path performs zero allocations.
// Hot callers that would otherwise allocate a closure per event can
// implement Handler and use ScheduleHandler; a pooled Handler round-trips
// through the queue without touching the garbage collector at all.
//
// Beside the heap, a sorted run (a ring scanned back from its tail) holds
// events scheduled nearly in time order: the simulator's gateway streams.
// Both draw seq from one counter and each step fires the earlier head, so
// the order is the heap-only one. Periodic ticks stay in the heap: at the
// ring's tail, their staggered entries would lengthen every scan.
package simevent

import (
	"errors"
	"fmt"
	"time"
)

// Event is a unit of work scheduled to run at a virtual time.
type Event func(now time.Duration)

// Handler is the allocation-free alternative to Event: a pre-built
// (typically pooled) object whose Fire method runs at the scheduled time.
// Storing a pointer-shaped Handler in the queue does not allocate, whereas
// every closure passed to Schedule is one heap allocation.
type Handler interface {
	Fire(now time.Duration)
}

// key is a heap entry: the ordering fields plus the index of the event's
// payload slot. Keys are 24 bytes, so sift operations move and compare
// barely more than half the bytes a combined key+payload entry would;
// payloads sit still in a slot arena and are looked up once per pop.
type key struct {
	at   time.Duration
	seq  uint64
	slot int32
}

// payload is the work half of a scheduled event. Exactly one of fn and h
// is set. Slots are recycled through a LIFO freelist, so the steady-state
// scheduling path performs zero allocations.
type payload struct {
	fn Event
	h  Handler
}

// before reports whether a fires before b: earlier timestamp, FIFO on
// ties.
func (a *key) before(b *key) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// ErrSchedulePast reports an attempt to schedule an event before the
// current virtual time.
var ErrSchedulePast = errors.New("simevent: schedule time is in the past")

// Engine is a single-threaded discrete-event simulator. The zero value is
// ready to use. Engine is not safe for concurrent use; a simulation is a
// sequential program over virtual time.
type Engine struct {
	heap  []key
	slots []payload
	free  []int32
	now   time.Duration
	seq   uint64

	// ring is the sorted run: ringLen keys from ringHead, mod len(ring) (2^k).
	ring              []key
	ringHead, ringLen int

	// interrupt, when non-nil, is polled every interruptEvery executed
	// events during Run; returning true stops the run. It exists so
	// long simulations can observe context cancellation promptly without
	// per-event overhead or extra events in the queue.
	interrupt func() bool
}

const interruptEvery = 4096 // executed events between two interrupt polls

// New returns an Engine with its clock at zero.
func New() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// PeekTime returns the fire time of the earliest pending event, or false
// when the queue is empty. The sharded simulation uses it to bound each
// parallel window at the next serially-executed global event.
func (e *Engine) PeekTime() (time.Duration, bool) {
	if e.ringFirst() {
		return e.ring[e.ringHead].at, true
	}
	if len(e.heap) == 0 {
		return 0, false
	}
	return e.heap[0].at, true
}

// ringFirst reports whether the sorted run's head is the earliest event.
func (e *Engine) ringFirst() bool {
	return e.ringLen > 0 && (len(e.heap) == 0 || e.ring[e.ringHead].before(&e.heap[0]))
}

// SetInterrupt installs a poll function consulted every interruptEvery
// executed events during Run; when it returns true the run stops. A nil f
// removes the hook. The hook does not alter the event stream, so runs
// with and without it produce identical results.
func (e *Engine) SetInterrupt(f func() bool) { e.interrupt = f }

// Schedule enqueues fn to run at absolute virtual time at. Scheduling at
// the current time is allowed (the event runs after already-pending events
// for the same instant). Scheduling in the past returns ErrSchedulePast.
// Note fn itself is typically a closure, which the caller allocates; use
// ScheduleHandler on paths hot enough to care.
func (e *Engine) Schedule(at time.Duration, fn Event) error {
	if at < e.now {
		return fmt.Errorf("%w: at=%v now=%v", ErrSchedulePast, at, e.now)
	}
	e.seq++
	e.push(at, e.seq, fn, nil)
	return nil
}

// ScheduleHandler enqueues h.Fire to run at absolute virtual time at,
// without allocating. Ordering semantics match Schedule exactly.
func (e *Engine) ScheduleHandler(at time.Duration, h Handler) error {
	if at < e.now {
		return fmt.Errorf("%w: at=%v now=%v", ErrSchedulePast, at, e.now)
	}
	e.seq++
	e.push(at, e.seq, nil, h)
	return nil
}

// ScheduleSorted is ScheduleHandler for events scheduled nearly in time
// order: h waits in the sorted run, inserted by a scan back from its tail
// that moves one key per pending sorted event later than at.
func (e *Engine) ScheduleSorted(at time.Duration, h Handler) error {
	if at < e.now {
		return fmt.Errorf("%w: at=%v now=%v", ErrSchedulePast, at, e.now)
	}
	if e.ringLen == len(e.ring) { // full: double it, unwrapped
		ring := make([]key, max(64, 2*len(e.ring)))
		n := copy(ring, e.ring[e.ringHead:])
		copy(ring[n:], e.ring[:e.ringHead])
		e.ring, e.ringHead = ring, 0
	}
	e.seq++
	entry, mask := key{at: at, seq: e.seq, slot: e.alloc(nil, h)}, len(e.ring)-1
	i := e.ringHead + e.ringLen
	for ; i > e.ringHead && entry.before(&e.ring[(i-1)&mask]); i-- {
		e.ring[i&mask] = e.ring[(i-1)&mask]
	}
	e.ring[i&mask] = entry
	e.ringLen++
	return nil
}

// ReserveSeq allocates and returns the next scheduling sequence number
// without enqueuing anything. Together with ScheduleHandlerReserved it
// lets a caller fix an event's FIFO tie-break position now and insert the
// event into the queue later, which keeps the queue small when a
// subsystem generates long runs of events whose relative order is already
// known (e.g. an FCFS server whose completion times are nondecreasing:
// only the head of each server's completion stream needs to sit in the
// queue).
func (e *Engine) ReserveSeq() uint64 {
	e.seq++
	return e.seq
}

// ScheduleHandlerReserved enqueues h.Fire at absolute virtual time at
// under a sequence number previously obtained from ReserveSeq. The event
// fires exactly when it would have had ScheduleHandler been called at
// reservation time, provided the caller inserts it before it becomes the
// earliest pending event — i.e. before every event with a smaller
// (at, seq) key has executed. internal/sim meets this by keeping deferred
// events in per-server FIFOs and enqueuing each next head while the
// previous head (whose key is strictly smaller) is firing.
func (e *Engine) ScheduleHandlerReserved(at time.Duration, seq uint64, h Handler) error {
	if at < e.now {
		return fmt.Errorf("%w: at=%v now=%v", ErrSchedulePast, at, e.now)
	}
	e.push(at, seq, nil, h)
	return nil
}

// alloc stores a payload in a recycled or new slot and returns its index.
func (e *Engine) alloc(fn Event, h Handler) int32 {
	if n := len(e.free); n > 0 {
		s := e.free[n-1]
		e.free = e.free[:n-1]
		e.slots[s] = payload{fn: fn, h: h}
		return s
	}
	e.slots = append(e.slots, payload{fn: fn, h: h})
	return int32(len(e.slots) - 1)
}

// The queue is a 4-ary min-heap of 24-byte keys ordered by (at, seq).
// Compared to the binary container/heap it halves the tree depth, keeps
// children of a node in one cache line's reach, and avoids both the
// per-node allocation and the interface boxing of heap.Push/heap.Pop.
// Event payloads live outside the heap in a slot arena, so sift swaps
// never move function or interface values.

func (e *Engine) push(at time.Duration, seq uint64, fn Event, h Handler) {
	// Hole-based sift-up: bubble a hole to the entry's final position and
	// write the entry once, instead of swapping it level by level. The
	// comparison sequence is identical to a swap-based sift, so the heap
	// layout — and therefore pop order — is unchanged.
	entry := key{at: at, seq: seq, slot: e.alloc(fn, h)}
	e.heap = append(e.heap, entry)
	i := len(e.heap) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !entry.before(&e.heap[parent]) {
			break
		}
		e.heap[i] = e.heap[parent]
		i = parent
	}
	e.heap[i] = entry
}

// pop removes and returns the heap's earliest key.
func (e *Engine) pop() key {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	e.heap = h
	// Hole-based sift-down: move the displaced last element's hole down to
	// its final position and write it once — one 24-byte write per level
	// instead of a swap's three, with an identical comparison sequence, so
	// pop order (and every simulation result) is bit-identical.
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
	return top
}

// step executes the single earliest pending event that fires no later
// than horizon and advances the clock to its timestamp. It returns false
// if there is none.
func (e *Engine) step(horizon time.Duration) bool {
	var top key
	if e.ringFirst() {
		if top = e.ring[e.ringHead]; top.at > horizon {
			return false
		}
		e.ringHead = (e.ringHead + 1) & (len(e.ring) - 1)
		e.ringLen--
	} else if len(e.heap) > 0 && e.heap[0].at <= horizon {
		top = e.pop()
	} else {
		return false
	}
	p := e.slots[top.slot]
	e.slots[top.slot] = payload{} // release fn/h references
	e.free = append(e.free, top.slot)
	e.now = top.at
	if p.h != nil {
		p.h.Fire(e.now)
	} else {
		p.fn(e.now)
	}
	return true
}

// Run executes events in timestamp order until the queue is empty, the
// interrupt hook fires, or the next event lies strictly beyond horizon.
// The clock never advances past the last executed event; events beyond
// the horizon remain queued so Run can be resumed with a later horizon.
func (e *Engine) Run(horizon time.Duration) {
	sinceCheck := 0
	for e.step(horizon) {
		if e.interrupt != nil {
			if sinceCheck++; sinceCheck >= interruptEvery {
				sinceCheck = 0
				if e.interrupt() {
					return
				}
			}
		}
	}
}
