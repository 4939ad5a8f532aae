package main

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"time"

	"radar/internal/live"
	"radar/internal/object"
	"radar/internal/protocol"
	"radar/internal/sim"
	"radar/internal/topology"
)

// liveSetup is a fleet that is up, ready and warm, with the inputs of the
// measured phase generated.
type liveSetup struct {
	fleet *fleet
	rq    *requester
	sched []arrival
}

func (ls *liveSetup) close() {
	ls.rq.close()
	ls.fleet.close()
}

// closedScheduleLen is how many (gateway, object) pairs a closed loop
// cycles through; at the measured rates it does not wrap inside a run.
const closedScheduleLen = 1 << 18

// setupLive brings up the workload's fleet and warms it: everything a
// request-serving live workload does before its measured phase.
func setupLive(ctx context.Context, o runOpts, tr *tracer) (*liveSetup, error) {
	cfg, err := buildLiveConfig(o.Workload, o.Seed, o.Quick)
	if err != nil {
		return nil, err
	}
	var st *serverTrace
	if tr != nil {
		st = &serverTrace{tr: tr}
	}
	f, err := startFleet(cfg, st)
	if err != nil {
		return nil, err
	}
	ls := &liveSetup{fleet: f, rq: newRequester(f)}
	gateways := len(f.urls)
	gen := cfg.Sim.Workload
	warm := closedSchedule(o.Seed+1, gen, gateways, warmupRequests)
	ls.rq.warmUp(ctx, warm, warmupRequests)
	ls.rq.tr = tr // the warm-up's client side is not traced
	if o.Workload.Kind == kindOpen {
		ls.sched = openSchedule(o.Seed, gen, gateways, openLoopRate, o.window())
	} else {
		ls.sched = closedSchedule(o.Seed, gen, gateways, closedScheduleLen)
	}
	return ls, nil
}

// liveRun is one measured phase against a fleet.
type liveRun struct {
	use    usage
	sum    loadSummary
	blocks []block         // the phase's work with the reference laps taken beside it
	stats  live.StatsReply // what the answering nodes did during the phase
	busy   int             // nodes whose lock was held at a scrape
	start  int64           // tracer time the phase began at
}

// measureLive runs the workload's loop against a warm fleet.
func measureLive(ctx context.Context, o runOpts, ls *liveSetup, ref *refLoop, tr *tracer) liveRun {
	var run liveRun
	before := ls.fleet.fleetStats()
	if o.Workload.Kind == kindOpen {
		// Start the window a fixed time after the fleet's epoch, so the
		// first placement round falls at the same offset into every run.
		time.Sleep(time.Until(ls.fleet.epoch.Add(openLoopStart)))
	}
	runtime.GC()
	if tr != nil {
		run.start = tr.now()
	}
	m := startMeter()
	var samples [][]sample
	unsent := 0
	if o.Workload.Kind == kindOpen {
		// An open loop's schedule is in wall-clock seconds and so is its
		// goodput, which the stall sets, not the machine's speed: one block
		// without laps, a reference second being a second.
		began := time.Now()
		samples, unsent = ls.rq.openLoop(ctx, ls.sched, o.window())
		run.blocks = []block{{work: time.Since(began).Seconds()}}
	} else {
		samples, run.blocks = ls.rq.closedLoop(ctx, ls.sched, o.window(), ref)
	}
	run.use = m.Stop(harnessBytes(ls.sched, samples) + ref.bytes())
	run.sum = summarize(samples, unsent)
	if o.Workload.Kind == kindOpen {
		// An open loop's throughput is goodput: served inside the limit,
		// over the whole phase, drain included.
		run.blocks[0].served = int64(run.sum.served - run.sum.slow)
	}
	run.stats, run.busy = statsDelta(before, ls.fleet.fleetStats())
	return run
}

// runLiveWorkload measures live-quiet (closed loop) or live-placing (open
// loop): one fleet, one warm-up, one measured window of the requested
// length.
func runLiveWorkload(ctx context.Context, o runOpts, ref *refLoop, rep *report) error {
	ls, err := setupLive(ctx, o, nil)
	if err != nil {
		return err
	}
	defer ls.close()
	run := measureLive(ctx, o, ls, ref, nil)
	reportLiveRun(o, ls, run, rep)
	checkLiveRun(o, ls, run, rep)
	return nil
}

// reportLiveRun turns a measured phase into metrics.
func reportLiveRun(o runOpts, ls *liveSetup, run liveRun, rep *report) {
	sum := run.sum
	rep.attempted += int64(sum.attempted)
	rep.failed += int64(sum.failed + sum.refused)
	reportBlocks(run.blocks, rep)
	// Per request issued: an arrival that was never sent cost the fleet
	// nothing, so a change in how long the fleet stalls does not move these.
	issued := float64(max(1, sum.issued()))
	rep.set("allocs_per_req", float64(run.use.Allocs)/issued, sum.issued())
	rep.set("bytes_per_req", float64(run.use.Bytes)/issued, sum.issued())
	rep.set("live_heap_mb", run.use.LiveHeapMB, 1)
	rep.set("live.total_p50_ms", 1e3*quantile(sum.total, 0.50), len(sum.total))
	rep.set("live.total_p99_ms", 1e3*quantile(sum.total, 0.99), len(sum.total))
	rep.set("live.total_p999_ms", 1e3*quantile(sum.total, 0.999), len(sum.total))
	rep.set("live.miss_share", sum.missShare(), sum.attempted)
	rep.set("live.fail_share", sum.failShare(), sum.attempted)
	reportFleetStats(run.stats, run.busy, len(ls.fleet.urls), rep)
	if o.Workload.Kind == kindOpen {
		rep.set("loadgen.late_p50_us", 1e6*quantile(sum.late, 0.50), len(sum.late))
		rep.set("loadgen.late_p99_us", 1e6*quantile(sum.late, 0.99), len(sum.late))
		rep.set("loadgen.unsent", float64(sum.unsent), sum.attempted)
		rep.set("loadgen.timed_out", float64(sum.timedOut), sum.attempted)
	}
}

// reportFleetStats reports the counters scraped from /ctl/stats, summed over
// the nodes that answered.
func reportFleetStats(d live.StatsReply, busy, nodes int, rep *report) {
	n := nodes - busy
	rep.set("live.rpc_attempts", float64(d.RPCAttempts), n)
	rep.set("live.rpc_retries", float64(d.RPCRetries), n)
	rep.set("live.rpc_retry_ratio", float64(d.RPCRetries)/float64(max(1, d.RPCAttempts)), n)
	rep.set("live.rpc_lost", float64(d.RPCLost), n)
	rep.set("live.rpc_budget_denials", float64(d.RPCBudgetDenials), n)
	rep.set("live.create_executions", float64(d.CreateExecutions), n)
	rep.set("live.create_peak_concurrency", float64(d.CreatePeakConcurrency), n)
	rep.set("live.place_ticks", float64(d.PlaceTicks), n)
}

// checkLiveRun applies the output checks and the workload-identity guards.
// Body length is checked per request (a short 200 is a failure); here the
// fleet must still hold every object, the quiet workload must have seen no
// placement pass and the placing workload at least one, and an open loop
// must have judged enough arrivals with a generator that kept time while
// the fleet answered.
func checkLiveRun(o runOpts, ls *liveSetup, run liveRun, rep *report) {
	name := o.Workload.Name
	lost, err := ls.fleet.lostObjects()
	switch {
	case err != nil:
		rep.problem("%s: %v", name, err)
	case lost > 0:
		rep.problem("%s: %d objects have no replica after the run", name, lost)
	}
	if run.sum.served == 0 {
		rep.problem("%s served nothing", name)
	}
	// A node too busy to answer /ctl/stats is inside a placement pass.
	ticks := run.stats.PlaceTicks + int64(run.busy)
	switch o.Workload.Kind {
	case kindClosed:
		if ticks > 0 {
			rep.problem("%s: %d placement ticks fell inside the run; the workload must see none", name, ticks)
		}
		if f := run.sum.failed + run.sum.refused; f > 0 {
			rep.problem("%s: %d requests failed on an idle fleet", name, f)
		}
	case kindOpen:
		if ticks == 0 {
			rep.problem("%s: no placement tick fell inside the run", name)
		}
		if !o.Quick && run.sum.attempted < minOpenLoopSamples {
			rep.problem("%s: %d arrivals, fewer than %d", name, run.sum.attempted, minOpenLoopSamples)
		}
		// The generator's lateness is its own only on a fleet that answered
		// everything: nodes that stall in a placement round do so with both
		// processors busy, and the workers due to wake then wake late.
		stalled := run.sum.timedOut+run.sum.unsent > 0
		if late := quantile(run.sum.late, 0.99); !stalled && late > lateLimit.Seconds() {
			rep.problem("%s: the load generator ran %.1f ms late at its 99th percentile", name, 1e3*late)
		}
	}
}

// ---- live-replay ----------------------------------------------------------

// decisionLog records the simulator's placement decisions in the live
// nodes' wire shape, so the two sequences compare element for element.
type decisionLog struct {
	events []live.Event
}

func (l *decisionLog) OnMigrate(now time.Duration, id object.ID, from, to topology.NodeID, kind protocol.MoveKind) {
	l.events = append(l.events, live.Event{At: int64(now), Kind: live.EventMigrate, Object: int64(id), From: int(from), To: int(to), Move: kind.String()})
}

func (l *decisionLog) OnReplicate(now time.Duration, id object.ID, from, to topology.NodeID, kind protocol.MoveKind) {
	l.events = append(l.events, live.Event{At: int64(now), Kind: live.EventReplicate, Object: int64(id), From: int(from), To: int(to), Move: kind.String()})
}

func (l *decisionLog) OnDrop(now time.Duration, id object.ID, host topology.NodeID) {
	l.events = append(l.events, live.Event{At: int64(now), Kind: live.EventDrop, Object: int64(id), From: int(host)})
}

func (l *decisionLog) OnRefuse(now time.Duration, id object.ID, from, to topology.NodeID, method protocol.Method) {
	l.events = append(l.events, live.Event{At: int64(now), Kind: live.EventRefuse, Object: int64(id), From: int(from), To: int(to), Method: method.String()})
}

func (l *decisionLog) OnDefer(now time.Duration, id object.ID, from, to topology.NodeID, method protocol.Method) {
	l.events = append(l.events, live.Event{At: int64(now), Kind: live.EventDefer, Object: int64(id), From: int(from), To: int(to), Method: method.String()})
}

// replayRun is one measured driver-paced replay.
type replayRun struct {
	measured
	decisions []live.Event
	start     int64
}

// measureReplay starts a fresh driver-paced fleet and replays the
// workload's schedule through it with live.Driver. harnessBytes is the heap
// the benchmark itself holds. after, when not nil, gets the fleet once the
// replay is over and before it is torn down.
func measureReplay(ctx context.Context, cfg live.Config, harnessBytes uint64, tr *tracer, after func(*fleet)) (replayRun, error) {
	var st *serverTrace
	if tr != nil {
		st = &serverTrace{tr: tr}
	}
	f, err := startFleet(cfg, st)
	if err != nil {
		return replayRun{}, err
	}
	defer f.close()
	d, err := live.NewDriver(cfg, f.urls)
	if err != nil {
		return replayRun{}, err
	}
	defer d.Close()
	var run replayRun
	if tr != nil {
		run.start = tr.now()
	}
	runtime.GC()
	m := startMeter()
	run.res, err = d.Run(ctx)
	run.use = m.Stop(harnessBytes)
	if err != nil {
		return replayRun{}, err
	}
	run.decisions = d.Decisions()
	if after != nil {
		after(f)
	}
	return run, nil
}

// runReplayWorkload measures live-replay: whole replays of the same
// schedule, each on a fresh fleet, repeated like the simulator workloads.
func runReplayWorkload(ctx context.Context, o runOpts, ref *refLoop, rep *report) error {
	cfg, err := buildLiveConfig(o.Workload, o.Seed, o.Quick)
	if err != nil {
		return err
	}
	// The driver draws the replayed schedule from the workload generator,
	// so the laps go there, as in a simulator run.
	gen := &lapGenerator{Generator: cfg.Sim.Workload, ref: ref}
	lapped := cfg
	lapped.Sim.Workload = gen
	var runs []replayRun
	var blocks []block
	var elapsed time.Duration
	for {
		gen.begin()
		run, err := measureReplay(ctx, lapped, ref.bytes(), nil, nil)
		if err != nil {
			return err
		}
		runs = append(runs, run)
		blocks = append(blocks, gen.end(run.res.TotalServed, run.use.Wall))
		elapsed += run.use.Wall
		if !repeatAgain(len(runs), elapsed, o.Seconds) {
			break
		}
	}
	costs := make([]measured, len(runs))
	for i, r := range runs {
		costs[i] = r.measured
		rep.failed += r.res.FailedRequests
	}
	reportRepeats(costs, blocks, rep)
	rep.set("live.fail_share", float64(rep.failed)/float64(max(1, rep.attempted)), int(rep.attempted))
	checkReplay(cfg, runs, rep)
	return nil
}

// checkReplay holds every replay to the simulator: the same configuration
// run by sim.New(cfg.Sim).Run() must give the same decision sequence and
// the same request-path aggregates (the fields TestSimLiveEquivalence
// compares), with no failed request.
func checkReplay(cfg live.Config, runs []replayRun, rep *report) {
	simCfg := cfg.Sim
	want := &decisionLog{}
	simCfg.ExtraObserver = want
	s, err := sim.New(simCfg)
	if err != nil {
		rep.problem("live-replay reference simulation: %v", err)
		return
	}
	ref, err := s.Run()
	if err != nil {
		rep.problem("live-replay reference simulation: %v", err)
		return
	}
	if len(want.events) == 0 {
		rep.problem("live-replay: the simulator made no placement decision; the workload pins nothing")
	}
	for i, r := range runs {
		if err := sameAsSimulator(r.res, r.decisions, ref, want.events); err != nil {
			rep.problem("live-replay run %d differs from the simulator: %v", i, err)
		}
	}
}

func sameAsSimulator(got *sim.Results, gotDecisions []live.Event, want *sim.Results, wantDecisions []live.Event) error {
	switch {
	case got.FailedRequests != 0 || got.Failures != 0:
		return fmt.Errorf("%d failed requests, %d crashes on a healthy fleet", got.FailedRequests, got.Failures)
	case got.TotalServed != want.TotalServed:
		return fmt.Errorf("TotalServed %d, simulator %d", got.TotalServed, want.TotalServed)
	case got.TimedOutRequests != want.TimedOutRequests:
		return fmt.Errorf("TimedOutRequests %d, simulator %d", got.TimedOutRequests, want.TimedOutRequests)
	case got.DroppedChoices != want.DroppedChoices:
		return fmt.Errorf("DroppedChoices %d, simulator %d", got.DroppedChoices, want.DroppedChoices)
	case got.Counters != want.Counters:
		return fmt.Errorf("Counters %+v, simulator %+v", got.Counters, want.Counters)
	case got.AvgReplicas != want.AvgReplicas:
		return fmt.Errorf("AvgReplicas %v, simulator %v", got.AvgReplicas, want.AvgReplicas)
	case !reflect.DeepEqual(got.Replicas, want.Replicas):
		return fmt.Errorf("replica census series differs")
	case !reflect.DeepEqual(got.MaxLoad, want.MaxLoad):
		return fmt.Errorf("max-load series differs")
	case len(gotDecisions) != len(wantDecisions):
		return fmt.Errorf("%d placement decisions, simulator %d", len(gotDecisions), len(wantDecisions))
	}
	for i := range wantDecisions {
		if gotDecisions[i] != wantDecisions[i] {
			return fmt.Errorf("decision %d is %+v, simulator %+v", i, gotDecisions[i], wantDecisions[i])
		}
	}
	return nil
}
