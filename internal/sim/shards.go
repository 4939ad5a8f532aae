package sim

import (
	"context"
	"fmt"
	"sort"
	"time"

	"radar/internal/metrics"
	"radar/internal/simevent"
	"radar/internal/simnet"
	"radar/internal/topology"
)

// Sharded event engine: conservative-lookahead intra-run parallelism with
// bit-identical results.
//
// The simulation's event population splits cleanly into three planes:
//
//   - The GLOBAL plane — measurement, placement, census, faults, workload
//     switches, anti-entropy reconciliation — reads and writes cross-host
//     state (redirector records, load reports, link status). It stays on
//     the serial engine.
//   - The DISPATCH plane — the per-gateway generators and the redirector
//     ChooseReplica step, which mutates redirector cursors and counters —
//     is inherently serial state shared by all gateways. It runs on its
//     own serial engine (s.dispEng).
//   - The SERVE plane — request arrival, FCFS completion, and response
//     delivery — touches only the chosen host's state (server queue,
//     store stack, host access records) plus commutative accumulators.
//     It is the hot plane (≥95% of events in request-heavy runs) and the
//     one that shards: hosts partition into lanes, each with its own
//     event wheel, metrics lane and network lane, executed concurrently.
//
// Virtual time advances in windows [T, end). Each window runs the global
// plane due at T, then the dispatch plane over [T, end) (serially,
// pushing arrival deliveries into target shard wheels), then all shard
// wheels over [T, end) in parallel, then a barrier that replays the
// shards' order-sensitive latency samples into the main collector in the
// canonical serial order. `end` is clamped to the next global event (so
// no global can fire inside a window and be observed late by dispatch or
// serve events) and optionally to T + quantum.
//
// Determinism. Serial event order is (time, seq) with seq assigned at
// scheduling time. Shard wheels order events by (time, Stamp) where
// Stamp = (SchedAt, ParentAt, Plane, Seq) records when the event — and,
// on ties, its scheduler — was scheduled (simevent.Stamp). Within a
// plane this reconstructs the serial seq order exactly: dispatch runs
// serially so delivery Seqs replicate arrival scheduling order, and a
// wheel's local events are stamped in its own pop order, which inductively
// matches the serial relative order. Across planes, ties deeper than
// (SchedAt, ParentAt) fall back to a fixed Plane order; on the
// simulator's discrete latency grids such ties do not arise, and the
// bit-identity property tests in shards_test.go check the end-to-end
// results are byte-for-byte equal to the serial engine's.
//
// Lookahead. The conservative bound W = (min cross-shard hop distance) ×
// HopDelay: any cross-shard interaction sent at t arrives no earlier than
// t+W (routing.Table.MinGroupDistance, computed once at freeze). The
// engine is in fact stricter than W requires — the only cross-shard
// channel is dispatcher→shard, and the dispatch phase of window k runs
// before the serve phase of window k — so windows of any length are safe.
// simevent.Wheel.Push still asserts the invariant at run time: a delivery
// timestamped inside a shard's committed window panics.

// lane is one shard's execution context: an event wheel over a subset of
// hosts, plus shard-local sinks for everything the serve plane writes —
// metrics lane, network lane, request pool, counters, and the
// order-sensitive latency log replayed at barriers. The serial engine
// uses a single degenerate lane (wheel == nil) whose sinks alias the
// simulation's own, which keeps request.Fire identical across modes.
type lane struct {
	s     *Simulation
	idx   int             // shard index; -1 for the serial main lane
	wheel *simevent.Wheel // nil selects the serial engine paths
	col   *metrics.Collector
	net   *simnet.Network

	reqFree []*request // shard-local request pool (drained at barriers)

	droppedChoices int64
	timedOut       int64

	latLog []latRec // this window's latency samples, in wheel pop order
	latPos int

	start chan time.Duration // window end; closed to stop the worker
	done  chan int
}

// latRec is one order-sensitive latency sample awaiting canonical replay:
// the wheel key (at, st) of the event that recorded it plus the sample.
type latRec struct {
	at      time.Duration
	st      simevent.Stamp
	deliver time.Duration
	lat     time.Duration
}

// newRequest takes a request from the lane's pool, or allocates one.
func (ln *lane) newRequest() *request {
	if n := len(ln.reqFree); n > 0 {
		r := ln.reqFree[n-1]
		ln.reqFree = ln.reqFree[:n-1]
		return r
	}
	return &request{}
}

// release returns a finished request to the lane's pool.
func (ln *lane) release(r *request) {
	ln.reqFree = append(ln.reqFree, r)
}

// fail counts r as lost to a fault at now and retires it.
func (ln *lane) fail(r *request, now time.Duration) {
	ln.col.RecordFailedRequest(now)
	ln.release(r)
}

// schedule enqueues a reqFIFO head at its reserved time: on the serial
// engine under its reserved sequence number, on a shard wheel under its
// reserved stamp. A head's time is >= the current event time, so neither
// path can fail.
func (ln *lane) schedule(r *request) {
	if ln.wheel == nil {
		_ = ln.s.engine.ScheduleHandlerReserved(r.doneAt, r.seq, r)
		return
	}
	ln.wheel.Push(r.doneAt, r.stamp, r)
}

// recordLatency records an end-to-end latency sample. Latency aggregates
// are floating-point sums, so sample order matters for bit-identity;
// shard lanes log samples with their wheel keys and the barrier replays
// them into the main collector in canonical order.
func (ln *lane) recordLatency(deliver, lat time.Duration) {
	if ln.wheel == nil {
		ln.col.RecordLatency(deliver, lat)
		return
	}
	at, st := ln.wheel.Executing()
	ln.latLog = append(ln.latLog, latRec{at: at, st: st, deliver: deliver, lat: lat})
}

// run is the shard worker loop: one persistent goroutine per lane,
// executing one window per start message. The channel handoffs order all
// lane state against the coordinator, so the serve plane needs no other
// synchronization.
func (ln *lane) run() {
	for end := range ln.start {
		ln.done <- ln.wheel.RunBefore(end)
	}
}

// shardAssignments deterministically partitions the topology's nodes into
// k shards along region boundaries: populated regions (in canonical
// Regions() order) form the initial groups; while there are fewer groups
// than shards the largest group splits in half (keeping node-ID order);
// finally groups are bin-packed into k shards by longest-processing-time
// (largest group to least-loaded shard, all ties by lowest index/ID).
// Keeping regions whole maximizes the minimum cross-shard hop distance on
// region-sparse graphs, which maximizes the lookahead bound W.
func shardAssignments(topo *topology.Topology, k int) []int {
	var groups [][]topology.NodeID
	seen := make([]bool, topo.NumNodes())
	for _, r := range topology.Regions() {
		ids := topo.NodesInRegion(r)
		if len(ids) == 0 {
			continue
		}
		for _, id := range ids {
			seen[id] = true
		}
		groups = append(groups, ids)
	}
	// Nodes outside the canonical region list (none today) form one
	// trailing group rather than silently landing in shard 0.
	var rest []topology.NodeID
	for id, ok := range seen {
		if !ok {
			rest = append(rest, topology.NodeID(id))
		}
	}
	if len(rest) > 0 {
		groups = append(groups, rest)
	}
	for len(groups) < k {
		li, size := -1, 1
		for i, g := range groups {
			if len(g) > size {
				li, size = i, len(g)
			}
		}
		if li == -1 {
			break // all singletons: k was larger than the node count
		}
		g := groups[li]
		mid := len(g) / 2
		groups[li] = g[:mid]
		groups = append(groups, nil)
		copy(groups[li+2:], groups[li+1:])
		groups[li+1] = g[mid:]
	}
	order := make([]int, len(groups))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ga, gb := groups[order[a]], groups[order[b]]
		if len(ga) != len(gb) {
			return len(ga) > len(gb)
		}
		return ga[0] < gb[0] // group min-IDs are distinct, so this is total
	})
	assign := make([]int, topo.NumNodes())
	load := make([]int, k)
	for _, gi := range order {
		bin := 0
		for b := 1; b < k; b++ {
			if load[b] < load[bin] {
				bin = b
			}
		}
		for _, id := range groups[gi] {
			assign[id] = bin
		}
		load[bin] += len(groups[gi])
	}
	return assign
}

// initLanes wires the execution lanes. Serial runs get one main lane
// aliasing the simulation's own collector, network and pool; sharded runs
// additionally get one lane per shard and a dedicated dispatch engine,
// plus the frozen lookahead bound derived from the routing table.
func (s *Simulation) initLanes() error {
	main := &lane{s: s, idx: -1, col: s.col, net: s.net}
	s.disp = main
	s.dispEng = s.engine
	n := s.topo.NumNodes()
	s.laneOf = make([]*lane, n)
	for i := range s.laneOf {
		s.laneOf[i] = main
	}
	k := min(s.cfg.Shards, n)
	if k < 2 {
		return nil
	}
	s.sharded = true
	s.dispEng = simevent.New()
	s.shardOf = shardAssignments(s.topo, k)
	minHops, err := s.routes.MinCrossGroupDistance(s.shardOf, k)
	if err != nil {
		return fmt.Errorf("sim: computing shard lookahead: %w", err)
	}
	s.lookahead = time.Duration(minHops) * s.cfg.Net.HopDelay
	s.lanes = make([]*lane, k)
	for i := range s.lanes {
		col, err := metrics.New(s.cfg.MetricsBucket)
		if err != nil {
			return err
		}
		col.Reserve(s.cfg.Duration)
		ln := &lane{s: s, idx: i, wheel: simevent.NewWheel(), col: col}
		ln.net = s.net.Lane(col)
		s.lanes[i] = ln
	}
	for node, sh := range s.shardOf {
		s.laneOf[node] = s.lanes[sh]
	}
	return nil
}

// runSharded executes the window/barrier loop described at the top of
// this file. It produces exactly the event executions of
// s.engine.Run(horizon) on the serial engine, in an order that differs
// only between provably independent events.
func (s *Simulation) runSharded(ctx context.Context) error {
	horizon := s.cfg.Duration
	quantum := s.cfg.quantum
	done := ctx.Done()
	for _, ln := range s.lanes {
		ln.start = make(chan time.Duration, 1)
		ln.done = make(chan int, 1)
		go ln.run()
	}
	defer func() {
		for _, ln := range s.lanes {
			close(ln.start)
		}
	}()
	var T time.Duration
	for {
		// Global plane due at T. Later globals bound the window below, so
		// none can fire between T and end.
		s.engine.Run(T)
		// Window end: the next global event, the quantum cap, or one step
		// past the horizon for the final window (serial Run(horizon) is
		// inclusive; RunBefore/Run(end-1) below are exclusive of end).
		end := horizon + time.Nanosecond
		if tg, ok := s.engine.PeekTime(); ok && tg < end {
			end = tg
		}
		if quantum > 0 && T+quantum < end {
			end = T + quantum
		}
		// Dispatch plane over [T, end): serial, pushes arrival deliveries
		// into target shard wheels under (time, Stamp) keys.
		s.dispEng.Run(end - time.Nanosecond)
		// Serve plane over [T, end): all shard wheels in parallel.
		for _, ln := range s.lanes {
			ln.start <- end
		}
		for _, ln := range s.lanes {
			<-ln.done
		}
		// Barrier: replay order-sensitive samples canonically, return
		// drained request pools to the dispatcher, observe cancellation.
		s.drainLatencyLogs()
		s.reclaimRequests()
		if done != nil {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
		}
		if end > horizon {
			return nil
		}
		T = end
	}
}

// drainLatencyLogs k-way merges the lanes' latency logs by (at, stamp,
// lane) — the canonical serial execution order — and replays them into
// the main collector, so its floating-point sums accumulate in exactly
// the serial order.
func (s *Simulation) drainLatencyLogs() {
	for {
		best := -1
		for i, ln := range s.lanes {
			if ln.latPos >= len(ln.latLog) {
				continue
			}
			if best == -1 {
				best = i
				continue
			}
			a := &ln.latLog[ln.latPos]
			b := &s.lanes[best].latLog[s.lanes[best].latPos]
			if a.at < b.at || (a.at == b.at && a.st.Less(b.st)) {
				best = i
			}
		}
		if best == -1 {
			break
		}
		ln := s.lanes[best]
		rec := ln.latLog[ln.latPos]
		ln.latPos++
		s.col.RecordLatency(rec.deliver, rec.lat)
	}
	for _, ln := range s.lanes {
		ln.latLog = ln.latLog[:0]
		ln.latPos = 0
	}
}

// reclaimRequests hands shard-released requests back to the dispatcher's
// pool at each barrier, keeping steady-state allocation near zero without
// cross-goroutine pool contention inside a window.
func (s *Simulation) reclaimRequests() {
	for _, ln := range s.lanes {
		s.disp.reqFree = append(s.disp.reqFree, ln.reqFree...)
		ln.reqFree = ln.reqFree[:0]
	}
}

// mergeLanes folds every lane's commutative accumulators — metric
// buckets and failure counters — into the
// simulation-level sinks. Serial runs have nothing to fold (the main
// lane aliases the simulation's own sinks). Called exactly once, from
// results().
func (s *Simulation) mergeLanes() {
	for _, ln := range append([]*lane{s.disp}, s.lanes...) {
		s.droppedChoices += ln.droppedChoices
		s.timedOut += ln.timedOut
		if ln.col != s.col {
			s.col.MergeFrom(ln.col)
		}
	}
}
