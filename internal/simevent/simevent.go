// Package simevent provides a deterministic discrete-event simulation
// engine: a virtual clock and a priority queue of timestamped events.
//
// Events scheduled for the same instant fire in the order they were
// scheduled (FIFO tie-breaking by sequence number), which makes every
// simulation run reproducible from its inputs alone.
//
// The queue is three queues of compact (time, seq, handler) keys, each
// drawing seq from one counter; a step fires the earliest of their three
// heads, so the order is that of one queue holding everything. Handlers
// (ScheduleHandler, ScheduleHandlerReserved) wait in the work heap, a
// value-based 4-ary heap: scheduling appends to a contiguous slice instead
// of allocating a node, so the steady-state path performs zero
// allocations. Closures (Schedule: periodic ticks, the fault timeline,
// hooks) wait in a timer heap of the same shape: firing at most about
// once per simulated second each, they would otherwise crowd the work
// heap and deepen every sift of the serve plane's events. A sorted run (a
// ring scanned back from its tail) holds events scheduled nearly in time
// order: the simulator's gateway streams (ScheduleSorted).
package simevent

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Event is a unit of work scheduled to run at a virtual time. Its Fire
// method makes it a Handler; a pre-built Event is scheduled without
// allocating, though building a closure allocates once.
type Event func(now time.Duration)

// Fire implements Handler.
func (f Event) Fire(now time.Duration) { f(now) }

// Handler is the allocation-free alternative to a fresh closure: a
// pre-built (typically pooled) object whose Fire method runs at the
// scheduled time. Storing a pointer-shaped Handler in the queue does not
// allocate.
type Handler interface {
	Fire(now time.Duration)
}

// key is a queued event: the ordering fields plus the handler to fire.
type key struct {
	at  time.Duration
	seq uint64
	h   Handler
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
	work   heap4 // ScheduleHandler, ScheduleHandlerReserved
	timers heap4 // Schedule
	now    time.Duration
	seq    uint64

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
	at, ok := time.Duration(math.MaxInt64), false
	if len(e.work) > 0 {
		at, ok = e.work[0].at, true
	}
	if e.ringLen > 0 {
		at, ok = min(at, e.ring[e.ringHead].at), true
	}
	if len(e.timers) > 0 {
		at, ok = min(at, e.timers[0].at), true
	}
	return at, ok
}

// SetInterrupt installs a poll function consulted every interruptEvery
// executed events during Run; when it returns true the run stops. A nil f
// removes the hook. The hook does not alter the event stream, so runs
// with and without it produce identical results.
func (e *Engine) SetInterrupt(f func() bool) { e.interrupt = f }

// Schedule enqueues fn to run at absolute virtual time at. Scheduling at
// the current time is allowed (the event runs after already-pending events
// for the same instant). Scheduling in the past returns ErrSchedulePast.
// fn waits in the timer heap: Schedule is for events that fire rarely
// (ticks, faults, hooks); use ScheduleHandler on paths hot enough to care.
func (e *Engine) Schedule(at time.Duration, fn Event) error {
	if at < e.now {
		return fmt.Errorf("%w: at=%v now=%v", ErrSchedulePast, at, e.now)
	}
	e.seq++
	e.timers.push(key{at: at, seq: e.seq, h: fn})
	return nil
}

// ScheduleHandler enqueues h.Fire to run at absolute virtual time at,
// without allocating. Ordering semantics match Schedule exactly.
func (e *Engine) ScheduleHandler(at time.Duration, h Handler) error {
	if at < e.now {
		return fmt.Errorf("%w: at=%v now=%v", ErrSchedulePast, at, e.now)
	}
	e.seq++
	e.work.push(key{at: at, seq: e.seq, h: h})
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
	entry, mask := key{at: at, seq: e.seq, h: h}, len(e.ring)-1
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
	e.work.push(key{at: at, seq: seq, h: h})
	return nil
}

// heap4 is a 4-ary min-heap of keys ordered by (at, seq). Compared to the
// binary container/heap it halves the tree depth, keeps children of a
// node in one cache line's reach, and avoids both the per-node allocation
// and the interface boxing of heap.Push/heap.Pop.
type heap4 []key

func (q *heap4) push(entry key) {
	// Hole-based sift-up: bubble a hole to the entry's final position and
	// write the entry once, instead of swapping it level by level.
	h := append(*q, entry)
	*q = h
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !entry.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = entry
}

// pop removes and returns the heap's earliest key.
func (q *heap4) pop() key {
	h := *q
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = key{} // release the handler reference
	h = h[:n]
	*q = h
	// Hole-based sift-down: move the displaced last element's hole down to
	// its final position and write it once — one write per level instead
	// of a swap's three.
	if n > 0 {
		i := 0
		for {
			first := 4*i + 1
			if first >= n {
				break
			}
			best := first
			end := min(first+4, n)
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
	// Find the earliest of the three heads: q is 1, 2 or 3 for the work
	// heap, the sorted run or the timer heap.
	q, top := 0, (*key)(nil)
	if len(e.work) > 0 {
		q, top = 1, &e.work[0]
	}
	if e.ringLen > 0 {
		if r := &e.ring[e.ringHead]; top == nil || r.before(top) {
			q, top = 2, r
		}
	}
	if len(e.timers) > 0 {
		if t := &e.timers[0]; top == nil || t.before(top) {
			q, top = 3, t
		}
	}
	if top == nil || top.at > horizon {
		return false
	}
	var k key
	switch q {
	case 1:
		k = e.work.pop()
	case 2:
		k = *top
		*top = key{} // release the handler reference
		e.ringHead = (e.ringHead + 1) & (len(e.ring) - 1)
		e.ringLen--
	default:
		k = e.timers.pop()
	}
	e.now = k.at
	k.h.Fire(k.at)
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
