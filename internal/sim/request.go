package sim

import (
	"radar/internal/object"
	"radar/internal/simevent"
	"radar/internal/simnet"
	"radar/internal/topology"
	"time"
)

// request carries one in-flight client request through its two scheduled
// hops: arrival at the chosen host and service completion. Requests
// implement simevent.Handler and are recycled through a free list, so the
// per-request hot path performs no heap allocations in steady state
// (closures scheduled per event were the simulator's dominant allocation
// source).
type request struct {
	s      *Simulation
	g      topology.NodeID // gateway the request entered at
	h      topology.NodeID // chosen replica host
	id     object.ID
	t0     time.Duration  // entry time, for end-to-end latency
	doneAt time.Duration  // reserved service completion time (reqDone phase)
	seq    uint64         // reserved engine sequence number (reqDone, serial)
	stamp  simevent.Stamp // reserved wheel stamp (reqDone, sharded)
	phase  uint8
}

// Request phases.
const (
	reqArrive uint8 = iota // UDP forward reached the chosen host
	reqDone                // FCFS service completed
)

// reqFIFO is a ring buffer of deferred service completions for one server.
//
// An FCFS server's completion times are nondecreasing in admission order,
// and completions reserve their engine sequence numbers at admission, so a
// server's pending completions are already totally ordered by (at, seq).
// Only the head of each FIFO therefore needs to occupy the global event
// queue; the rest wait here. This keeps the event heap at ~one entry per
// server instead of one per queued request (tens of thousands when servers
// saturate), which removes most of the heap's sift cost and its backing
// memory. Fired heads push their successor while executing, which is early
// enough to preserve the engine's exact pop order (see
// simevent.ScheduleHandlerReserved).
type reqFIFO struct {
	buf  []*request // capacity is always a power of two
	head int
	len  int
}

func (q *reqFIFO) push(r *request) {
	if q.len == len(q.buf) {
		grown := make([]*request, max(2*len(q.buf), 64))
		for i := 0; i < q.len; i++ {
			grown[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
		}
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.len)&(len(q.buf)-1)] = r
	q.len++
}

func (q *reqFIFO) pop() *request {
	r := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.len--
	return r
}

func (q *reqFIFO) peek() *request {
	if q.len == 0 {
		return nil
	}
	return q.buf[q.head]
}

// Fire implements simevent.Handler. Everything it touches is either
// state of the chosen host r.h — its queue, store and protocol records
// behind the fleet, its FIFO here — or a sink on r.h's lane, which is what
// lets the sharded engine run hosts' serve planes concurrently (see
// shards.go). Serial runs take the ln.wheel == nil paths, which reproduce
// the original single-engine code exactly.
func (r *request) Fire(now time.Duration) {
	s := r.s
	ln := s.laneOf[r.h]
	switch r.phase {
	case reqArrive:
		if s.down[r.h] {
			ln.droppedChoices++ // chosen replica crashed in flight
			ln.fail(r, now)
			return
		}
		doneAt, out := s.fleet.Admit(now, r.h, r.g, r.id)
		if out != OK {
			if out == Refused {
				ln.timedOut++ // abandoned by the client-timeout model; not a failure
				ln.release(r)
				return
			}
			s.markDown(now, r.h)
			ln.droppedChoices++
			ln.fail(r, now)
			return
		}
		// Reserve the completion's time and FIFO tie-break position at the
		// exact point it used to be scheduled, but defer the actual queue
		// insertion to the per-server FIFO (see reqFIFO).
		r.doneAt = doneAt
		r.phase = reqDone
		if ln.wheel == nil {
			r.seq = s.engine.ReserveSeq()
		} else {
			_, est := ln.wheel.Executing()
			r.stamp = simevent.Stamp{
				SchedAt:  now,
				ParentAt: est.SchedAt,
				Plane:    simevent.PlaneLocal,
				Seq:      ln.wheel.NextLocalSeq(),
			}
		}
		q := &s.svcQueue[r.h]
		q.push(r)
		if q.len == 1 {
			ln.scheduleCompletion(r)
		}
	case reqDone:
		// This request is its server's stream head; promote the successor
		// into the event queue (its completion time is >= now by FCFS
		// monotonicity, so this cannot fail).
		q := &s.svcQueue[r.h]
		q.pop()
		if next := q.peek(); next != nil {
			ln.scheduleCompletion(next)
		}
		if s.down[r.h] {
			// Host crashed while this request sat in its queue: the work
			// dies with the server; the client never hears back.
			ln.fail(r, now)
			return
		}
		if !s.fleet.Complete(now, r.h, r.g, r.id) {
			s.markDown(now, r.h)
			ln.fail(r, now)
			return
		}
		path := s.routes.PreferencePath(r.h, r.g)
		if s.haveLinkFaults && !ln.net.PathUp(path) {
			ln.fail(r, now) // response path severed: bytes never reach the gateway
			return
		}
		deliver := ln.net.Transfer(now, path, int64(s.cfg.Universe.SizeBytes), simnet.Payload)
		ln.recordLatency(deliver, deliver-r.t0)
		ln.release(r)
	}
}
