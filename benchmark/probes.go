package main

import (
	"math/rand"
	"runtime"
	"time"

	"radar/internal/ctrlplane"
	"radar/internal/fault"
	"radar/internal/metrics"
	"radar/internal/object"
	"radar/internal/routing"
	"radar/internal/sim"
	"radar/internal/simevent"
	"radar/internal/simnet"
	"radar/internal/topology"
	"radar/internal/workload"
)

// A probe replays the workload's own input stream (same DSL, same seed)
// through one layer's exported functions in a tight loop and reports ns/op
// and allocs/op. Where state matters it runs on the traced run's post-run
// state: Simulation.Hosts, Redirectors, Servers and Network.
//
// X.est_share = ops-in-run x ns/op / run wall. The ops-in-run are the run's
// request count times the layer's multiplicity on the request path, read
// off sim.dispatch and request.Fire:
//
//	1 workload draw            gen.Next in the generator's emit
//	1 replica choice           Redirector.ChooseReplica in dispatch
//	2 distance lookups         gateway->redirector, redirector->host
//	2 control-latency charges  the same two hops
//	3 events                   emit, arrival, completion (1 pop + 1 push each)
//	1 enqueue + 1 served       Server.Enqueue at arrival, OnServed at completion
//	1 OnRequest                Host.OnRequest at completion
//	1 preference path + 1 transfer   the response
//	1 latency record           Collector.RecordLatency at delivery
//
// and, per run rather than per request, one DecidePlacement per host per
// placement interval and Results.CtrlStats.Attempts control-RPC attempts.
// It is an estimate until a later issue traces inside the program.
const (
	distancePerRequest = 2
	controlPerRequest  = 2
	eventsPerRequest   = 3
)

// probeOps is how many operations a probe loop times; probeEvents is the
// same for the event-queue hold model, whose operations are cheaper.
const (
	probeOps    = 1 << 19
	probeEvents = 1 << 21
)

// timed runs fn, which performs ops operations, and returns ns and
// allocations per operation.
func timed(ops int, fn func()) (nsPerOp, allocsPerOp float64) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	fn()
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(wall.Nanoseconds()) / float64(ops), float64(after.Mallocs-before.Mallocs) / float64(ops)
}

// inputStream is the workload's request stream as the simulator draws it:
// one PRNG stream per gateway, gateways taken in turn.
type inputStream struct {
	gen  workload.Generator
	rngs []*rand.Rand
	next int
}

func newInputStream(cfg sim.Config, gateways int) *inputStream {
	in := &inputStream{gen: cfg.Workload, rngs: make([]*rand.Rand, gateways)}
	for g := range in.rngs {
		in.rngs[g] = workload.Stream(cfg.Seed, uint64(g))
	}
	return in
}

func (in *inputStream) draw() (topology.NodeID, object.ID) {
	g := in.next
	in.next = (in.next + 1) % len(in.rngs)
	return topology.NodeID(g), in.gen.Next(topology.NodeID(g), in.rngs[g])
}

// holdHandler is the hold model's event: each firing schedules its own
// successor a random increment (mean half a second) ahead, so the pending
// set keeps its size and every firing is one pop plus one push.
type holdHandler struct {
	engine *simevent.Engine
	wheel  *simevent.Wheel
	rng    *rand.Rand
	fired  *int
}

func (h *holdHandler) Fire(now time.Duration) {
	*h.fired++
	at := now + time.Duration(1+h.rng.Int63n(int64(time.Second)))
	if h.engine != nil {
		_ = h.engine.ScheduleHandler(at, h) // forward in time: cannot fail
		return
	}
	h.wheel.Push(at, simevent.Stamp{SchedAt: now, Plane: simevent.PlaneLocal, Seq: h.wheel.NextLocalSeq()}, h)
}

// holdHorizon is the virtual time in which a pending set of the given size
// fires about probeEvents events.
func holdHorizon(pending int) time.Duration {
	return time.Duration(float64(probeEvents) / float64(pending) * float64(time.Second) / 2)
}

// probeHeap times Engine pop+push at a pending set of the given size.
func probeHeap(pending int) (ns, allocs float64) {
	e := simevent.New()
	rng := rand.New(rand.NewSource(1))
	fired := 0
	for i := 0; i < pending; i++ {
		h := &holdHandler{engine: e, rng: rng, fired: &fired}
		_ = e.ScheduleHandler(time.Duration(rng.Int63n(int64(time.Second))), h)
	}
	ns, allocs = timed(1, func() { e.Run(holdHorizon(pending)) })
	return ns / float64(max(1, fired)), allocs / float64(max(1, fired))
}

// probeWheel times Wheel pop+push at the same pending-set size.
func probeWheel(pending int) (ns float64) {
	w := simevent.NewWheel()
	rng := rand.New(rand.NewSource(1))
	fired := 0
	for i := 0; i < pending; i++ {
		h := &holdHandler{wheel: w, rng: rng, fired: &fired}
		w.Push(time.Duration(rng.Int63n(int64(time.Second))), simevent.Stamp{Plane: simevent.PlaneLocal, Seq: w.NextLocalSeq()}, h)
	}
	ns, _ = timed(1, func() { w.RunBefore(holdHorizon(pending)) })
	return ns / float64(max(1, fired))
}

// simProbes measures every simulator layer on the post-run state of s and
// reports ns/op, allocs/op and estimated shares of the traced run.
func simProbes(tr *tracer, root int64, cfg sim.Config, s *sim.Simulation, run simRun, rep *report) {
	topo := cfg.Topo
	if topo == nil {
		topo = topology.UUNET()
	}
	var routes *routing.Table
	tr.region(root, "probe.routing.build", func() {
		ns, _ := timed(1, func() { routes = routing.New(topo) })
		rep.set("routing.build_ms", ns/1e6, 1)
	})
	n := routes.NumNodes()
	requests := float64(simRequests(run.res))
	wallNS := float64(run.use.Wall.Nanoseconds())
	attributed := 0.0
	share := func(name string, ops, nsPerOp float64) {
		v := ops * nsPerOp / wallNS
		rep.set(name, v, 1)
		attributed += v
	}

	tr.region(root, "probe.workload", func() {
		in := newInputStream(cfg, n)
		ns, _ := timed(probeOps, func() {
			for i := 0; i < probeOps; i++ {
				in.draw()
			}
		})
		rep.set("workload.next_ns", ns, probeOps)
		share("workload.est_share", requests, ns)
	})

	tr.region(root, "probe.simevent", func() {
		// Pending set of a run: per node one generator emit, one arrival in
		// flight and one completion head (see the reqFIFO comment in
		// internal/sim/request.go).
		pending := 3 * n
		ns, allocs := probeHeap(pending)
		rep.set("simevent.heap_ns_per_event", ns, probeEvents)
		rep.set("simevent.heap_allocs_per_event", allocs, probeEvents)
		wheelNS := probeWheel(pending)
		rep.set("simevent.wheel_ns_per_event", wheelNS, probeEvents)
		if cfg.Shards > 1 {
			// The serve plane's two events ride the wheels, the emit the heap.
			ns = (ns + 2*wheelNS) / 3
		}
		share("simevent.est_share", eventsPerRequest*requests, ns)
	})

	tr.region(root, "probe.routing", func() {
		rng := rand.New(rand.NewSource(cfg.Seed))
		pairs := make([][2]topology.NodeID, 1<<12)
		for i := range pairs {
			pairs[i] = [2]topology.NodeID{topology.NodeID(rng.Intn(n)), topology.NodeID(rng.Intn(n))}
		}
		sink := 0
		dist, _ := timed(probeOps, func() {
			for i := 0; i < probeOps; i++ {
				p := pairs[i&(len(pairs)-1)]
				sink += routes.Distance(p[0], p[1])
			}
		})
		pref, _ := timed(probeOps, func() {
			for i := 0; i < probeOps; i++ {
				p := pairs[i&(len(pairs)-1)]
				sink += len(routes.PreferencePath(p[0], p[1]))
			}
		})
		runtime.KeepAlive(sink)
		rep.set("routing.distance_ns", dist, probeOps)
		rep.set("routing.prefpath_ns", pref, probeOps)
		share("routing.est_share", requests, distancePerRequest*dist+pref)
	})

	// The request path's stateful layers, on the run's final state. The
	// triples are drawn first so each loop times one layer only.
	type triple struct {
		g, h topology.NodeID
		id   object.ID
	}
	reds := s.Redirectors()
	redirectorFor := func(id object.ID) int { return int(id) % len(reds) }
	in := newInputStream(cfg, n)
	triples := make([]triple, 1<<16)
	for i := range triples {
		g, id := in.draw()
		h, err := reds[redirectorFor(id)].ChooseReplica(g, id)
		if err != nil {
			h = g // no replica left (faulted run): any host exercises the miss path
		}
		triples[i] = triple{g: g, h: h, id: id}
	}
	mask := len(triples) - 1

	tr.region(root, "probe.protocol.choose", func() {
		ns, allocs := timed(probeOps, func() {
			for i := 0; i < probeOps; i++ {
				t := triples[i&mask]
				_, _ = reds[redirectorFor(t.id)].ChooseReplica(t.g, t.id)
			}
		})
		rep.set("protocol.choose_ns", ns, probeOps)
		rep.set("protocol.choose_allocs", allocs, probeOps)
		share("protocol.choose_est_share", requests, ns)
	})

	hosts := s.Hosts()
	tr.region(root, "probe.protocol.onrequest", func() {
		ns, _ := timed(probeOps, func() {
			for i := 0; i < probeOps; i++ {
				t := triples[i&mask]
				hosts[t.h].OnRequest(t.id, t.g)
			}
		})
		rep.set("protocol.onrequest_ns", ns, probeOps)
		share("protocol.onrequest_est_share", requests, ns)
	})

	servers := s.Servers()
	tr.region(root, "probe.server", func() {
		now := cfg.Duration
		ns, _ := timed(probeOps, func() {
			for i := 0; i < probeOps; i++ {
				t := triples[i&mask]
				now += time.Microsecond
				servers[t.h].Enqueue(now, 0)
				servers[t.h].OnServed(t.id)
			}
		})
		rep.set("server.enqueue_served_ns", ns, probeOps)
		share("server.est_share", requests, ns)
	})

	network := s.Network()
	tr.region(root, "probe.simnet", func() {
		now := cfg.Duration
		size := int64(cfg.Universe.SizeBytes)
		transfer, _ := timed(probeOps, func() {
			for i := 0; i < probeOps; i++ {
				t := triples[i&mask]
				network.Transfer(now, routes.PreferencePath(t.h, t.g), size, simnet.Payload)
			}
		})
		// Transfer's path lookup is routing's time, measured above.
		transfer -= rep.values["routing.prefpath_ns"]
		control, _ := timed(probeOps, func() {
			for i := 0; i < probeOps; i++ {
				network.ControlLatency(now, i&7)
			}
		})
		rep.set("simnet.transfer_ns", transfer, probeOps)
		rep.set("simnet.control_ns", control, probeOps)
		share("simnet.est_share", requests, transfer+controlPerRequest*control)
	})

	tr.region(root, "probe.metrics", func() {
		fill := func() *metrics.Collector {
			col, err := metrics.New(cfg.MetricsBucket)
			if err != nil {
				return nil // cfg validated: cannot happen
			}
			col.Reserve(cfg.Duration)
			return col
		}
		col := fill()
		step := cfg.Duration / probeOps
		ns, _ := timed(probeOps, func() {
			for i := 0; i < probeOps; i++ {
				col.RecordLatency(time.Duration(i)*step, 40*time.Millisecond+time.Duration(i&1023)*time.Microsecond)
			}
		})
		rep.set("metrics.record_ns", ns, probeOps)
		share("metrics.est_share", requests, ns)
		// What the shard barrier does at the end of a run: fold one lane's
		// collector, populated over the whole horizon, into the main one.
		into := fill()
		const merges = 16
		mergeNS, _ := timed(merges, func() {
			for i := 0; i < merges; i++ {
				into.MergeFrom(col)
			}
		})
		rep.set("metrics.merge_ms", mergeNS/1e6, merges)
	})

	tr.region(root, "probe.protocol.place", func() {
		objects := 0
		for _, h := range hosts {
			objects += h.NumObjects()
		}
		at := cfg.Duration + cfg.PlacementInterval
		ns, _ := timed(1, func() {
			for _, h := range hosts {
				h.DecidePlacement(at)
			}
		})
		rounds := float64(cfg.Duration / cfg.PlacementInterval)
		rep.set("protocol.place_round_ms", ns/1e6, len(hosts))
		rep.set("protocol.place_ns_per_object", ns/float64(max(1, objects)), objects)
		share("protocol.place_est_share", rounds, ns)
	})

	tr.region(root, "probe.ctrlplane", func() {
		st := run.res.CtrlStats
		rep.set("ctrlplane.attempts", float64(st.Attempts), 1)
		rep.set("ctrlplane.retries", float64(st.Retries), 1)
		rep.set("ctrlplane.retry_ratio", float64(st.Retries)/float64(max(1, st.Attempts)), 1)
		rep.set("ctrlplane.lost", float64(st.Lost), 1)
		if !run.res.CtrlEnabled {
			return
		}
		faults := ctrlplane.Faults{Drop: cfg.Faults.MsgDrop, Dup: cfg.Faults.MsgDup, Delay: cfg.Faults.MsgDelay}
		hop := cfg.Net.HopDelay
		transport := func(now time.Duration, from, to topology.NodeID) (time.Duration, bool) {
			return now + time.Duration(routes.Distance(from, to))*hop, true
		}
		plane, err := ctrlplane.New(cfg.Ctrl, faults, workload.Stream(cfg.Seed, 1<<33), transport)
		if err != nil {
			rep.problem("ctrlplane probe: %v", err)
			return
		}
		const calls = 1 << 17
		now := time.Duration(0)
		ns, _ := timed(calls, func() {
			for i := 0; i < calls; i++ {
				t := triples[i&mask]
				_, _, now, _ = plane.Call(now, t.g, t.h, 0, func(time.Duration) bool { return true })
			}
		})
		perAttempt := ns * calls / float64(max(1, plane.Stats().Attempts))
		rep.set("ctrlplane.call_ns", ns, calls)
		share("ctrlplane.est_share", float64(st.Attempts), perAttempt)
	})

	tr.region(root, "probe.fault.timeline", func() {
		if !cfg.Faults.Enabled() {
			return
		}
		ns, _ := timed(1, func() {
			_, err := cfg.Faults.Timeline(n, fault.TopoEdges(topo), cfg.Duration, workload.Stream(cfg.Seed, 1<<32))
			if err != nil {
				rep.problem("fault timeline probe: %v", err)
			}
		})
		rep.set("fault.timeline_ms", ns/1e6, 1)
	})

	rep.set("sim.attributed_share", attributed, 1)
}
