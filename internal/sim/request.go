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
	doneAt time.Duration  // reserved fire time of the current phase: arrival, then completion
	seq    uint64         // reserved engine sequence number of the current phase (serial)
	stamp  simevent.Stamp // reserved wheel stamp (reqDone, sharded)
	phase  uint8
	hops   int32 // gateway -> redirector -> host hops: the arrival FIFO (serial)
}

// Request phases.
const (
	reqArrive uint8 = iota // UDP forward reached the chosen host
	reqDone                // FCFS service completed
)

// reqFIFO is a ring buffer of requests whose next event (time in doneAt,
// sequence number in seq) is reserved and already in (doneAt, seq) order
// within the FIFO: one server's FCFS completions, or one hop count's
// arrivals.
//
// An FCFS server's completion times are nondecreasing in admission order,
// and an arrival lands a fixed number of hop delays after its gateway
// fired; both reserve their engine sequence numbers when they would have
// been scheduled. Only the head of each FIFO therefore needs to occupy the
// global event queue; the rest wait here. This keeps the event heap at
// ~one entry per stream instead of one per in-flight request, which
// removes most of the heap's sift cost and its backing memory. Fired heads
// push their successor while executing, which is early enough to preserve
// the engine's exact pop order (see simevent.ScheduleHandlerReserved).
type reqFIFO struct {
	buf  []*request // capacity is always a power of two
	head int
	len  int
}

// push appends r. A request that lands in an empty FIFO is its head and is
// scheduled on ln at once.
func (q *reqFIFO) push(ln *lane, r *request) {
	if q.len == len(q.buf) {
		grown := make([]*request, max(2*len(q.buf), 64))
		for i := 0; i < q.len; i++ {
			grown[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
		}
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.len)&(len(q.buf)-1)] = r
	q.len++
	if q.len == 1 {
		ln.schedule(r)
	}
}

// pop retires the head, which is firing, and schedules its successor on
// ln. The successor's key is larger, and its time no earlier, so it enters
// the queue before it can be the earliest event.
func (q *reqFIFO) pop(ln *lane) {
	q.buf[q.head] = nil
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.len--
	if q.len > 0 {
		ln.schedule(q.buf[q.head])
	}
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
		if ln.wheel == nil {
			s.arrivals[r.hops].pop(ln) // r is its hop count's head
		}
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
		s.svcQueue[r.h].push(ln, r)
	case reqDone:
		s.svcQueue[r.h].pop(ln) // r is its server's head
		if s.down[r.h] {
			// Host crashed while this request sat in its queue: the work
			// dies with the server; the client never hears back.
			ln.fail(r, now)
			return
		}
		if !s.fleet.Complete(r.h, r.g, r.id) {
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
