package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"radar/internal/live"
	"radar/internal/sim"
)

// runTraced is a workload's traced run: spans on around every call into a
// layer, the per-layer probes, and the JSONL span file with its self-time
// summary. End-to-end metrics never come from here.
func runTraced(ctx context.Context, o runOpts, rep *report) error {
	tr := newTracer()
	root := tr.newID()
	var err error
	switch o.Workload.Kind {
	case kindSim:
		err = tracedSim(o, tr, root, rep)
	case kindReplay:
		err = tracedReplay(ctx, o, tr, root, rep)
	default:
		err = tracedLive(ctx, o, tr, root, rep)
	}
	tr.add(root, 0, 0, "run", 0, tr.now())
	if err != nil {
		return err
	}
	spans := tr.snapshot()
	if err := os.MkdirAll(o.OutDir, 0o755); err != nil {
		return err
	}
	if err := writeTrace(tracePath(o), spans); err != nil {
		return err
	}
	fmt.Printf("trace: %d spans in %s; self time by span name:\n", len(spans), tracePath(o))
	for i, st := range selfTimes(spans) {
		if i == 12 {
			break
		}
		fmt.Printf("  %-26s n=%-8d total %12.2f ms  self %12.2f ms\n", st.Name, st.Count, st.Total, st.Self)
	}
	return nil
}

// overheadShare is how much slower the traced run served than the untraced
// reference run of the same process.
func overheadShare(untracedPerS, tracedPerS float64) float64 {
	if untracedPerS <= 0 {
		return 0
	}
	return 1 - tracedPerS/untracedPerS
}

// ---- simulator --------------------------------------------------------------

func tracedSim(o runOpts, tr *tracer, root int64, rep *report) error {
	var cfg sim.Config
	var s *sim.Simulation
	var err error
	tr.region(root, "scenario.ParseSpec+Config", func() { cfg, err = buildSimConfig(o.Workload, o.Seed, o.Quick) })
	if err != nil {
		return err
	}
	counter := &moveCounter{}
	tcfg := cfg
	tcfg.ExtraObserver = counter
	started := time.Now()
	tr.region(root, "sim.New", func() { s, err = sim.New(tcfg) }) // cold: builds the routing table
	if err != nil {
		return err
	}
	rep.set("sim.new_ms", float64(time.Since(started).Nanoseconds())/1e6, 1)

	// The untraced reference: same composition, no observer, no spans.
	var ref, run simRun
	tr.region(root, "reference sim.Run", func() {
		var s0 *sim.Simulation
		if s0, err = sim.New(cfg); err == nil {
			ref, err = measureSim(s0, 0)
		}
	})
	if err != nil {
		return err
	}
	tr.region(root, "sim.Run", func() { run, err = measureSim(s, 0) })
	if err != nil {
		return err
	}
	rep.attempted = simRequests(ref.res) + simRequests(run.res)
	rep.hash = run.hash
	perS := func(r simRun) float64 { return float64(r.res.TotalServed) / r.use.Wall.Seconds() }
	rep.set("sim.run_s", run.use.Wall.Seconds(), 1)
	rep.set("sim.gc_cpu_share", run.use.GCCPUShare, 1)
	rep.set("trace.overhead_share", overheadShare(perS(ref), perS(run)), 1)
	rep.set("protocol.moves", float64(counter.moves), 1)
	rep.set("protocol.drops", float64(counter.drops), 1)
	rep.set("protocol.refusals", float64(counter.refusals), 1)
	rep.set("protocol.deferred", float64(counter.deferred), 1)
	if asked := counter.moves + counter.refusals + counter.deferred; asked > 0 {
		rep.set("protocol.accept_ratio", float64(counter.moves)/float64(asked), int(asked))
	}
	checkSimRuns(o, []simRun{ref, run}, rep)
	simProbes(tr, root, cfg, s, run, rep)
	if cfg.Shards > 1 {
		// The serial engine on the same composition: the equality check for
		// seeds without a pinned hash, and the base of the sharded ratios.
		// The traced simulation is dropped first so its heap is not counted
		// in the serial run's.
		s = nil
		var serial simRun
		tr.region(root, "serial sim.Run", func() { serial, err = serialReference(cfg) })
		if err != nil {
			return err
		}
		if serial.hash != run.hash {
			rep.problem("%s sharded hash %s differs from serial hash %s", o.Workload.Name, run.hash, serial.hash)
		}
		rep.set("sim.sharded_speedup", serial.use.Wall.Seconds()/run.use.Wall.Seconds(), 1)
		rep.set("sim.sharded_alloc_ratio", float64(run.use.Allocs)/float64(max(1, serial.use.Allocs)), 1)
		rep.set("sim.sharded_heap_ratio", run.use.LiveHeapMB/serial.use.LiveHeapMB, 1)
	}
	return nil
}

// ---- live fleet: span-derived metrics -----------------------------------------

// spanDurations groups the durations (seconds, ascending) of the spans that
// started at or after from by span name.
func spanDurations(spans []span, from int64) map[string][]float64 {
	by := make(map[string][]float64)
	for _, s := range spans {
		if s.Start >= from {
			by[s.Name] = append(by[s.Name], float64(s.End-s.Start)/1e9)
		}
	}
	for _, v := range by {
		sort.Float64s(v)
	}
	return by
}

// stallSeconds is the length of the union of the intervals in which some
// /serve request — seen from the node or, for one the deadline cut off,
// from the client — had been going for longer than the stall limit.
func stallSeconds(spans []span, from int64) float64 {
	var stalls [][2]int64
	for _, s := range spans {
		if s.Start >= from && (s.Name == "node.serve" || s.Name == "client.hop_serve") && time.Duration(s.End-s.Start) > stallLimit {
			stalls = append(stalls, [2]int64{s.Start, s.End})
		}
	}
	sort.Slice(stalls, func(i, j int) bool { return stalls[i][0] < stalls[j][0] })
	total, edge := int64(0), int64(0)
	for _, iv := range stalls {
		lo, hi := max(iv[0], edge), iv[1]
		if hi > lo {
			total += hi - lo
			edge = hi
		}
	}
	return float64(total) / 1e9
}

// reportSpanMetrics derives the client-hop and handler metrics of a traced
// live run from its spans. served is the number of requests the run served.
func reportSpanMetrics(spans []span, from int64, served int64, rep *report) {
	by := spanDurations(spans, from)
	// scaled reports a quantile of a span name's durations, if any such
	// span was recorded.
	scaled := func(metric, name string, q, scale float64) {
		if n := len(by[name]); n > 0 {
			rep.set(metric, scale*quantile(by[name], q), n)
		}
	}
	us := func(metric, name string, q float64) { scaled(metric, name, q, 1e6) }
	us("live.hop_redirect_us_p50", "client.hop_redirect", 0.50)
	us("live.hop_redirect_us_p99", "client.hop_redirect", 0.99)
	us("live.hop_serve_us_p50", "client.hop_serve", 0.50)
	us("live.hop_serve_us_p99", "client.hop_serve", 0.99)
	us("live.h_obj_us_p50", "node.obj", 0.50)
	us("live.h_obj_us_p99", "node.obj", 0.99)
	us("live.h_serve_us_p50", "node.serve", 0.50)
	us("live.h_serve_us_p99", "node.serve", 0.99)
	us("live.h_createobj_us_p50", "node.createobj", 0.50)
	us("live.h_createobj_us_p99", "node.createobj", 0.99)
	us("live.h_notify_us_p50", "node.notify", 0.50)
	us("live.h_load_us_p50", "node.load", 0.50)
	us("live.h_complete_us_p50", "node.complete", 0.50)
	us("live.h_measure_us_p50", "node.measure", 0.50)
	scaled("live.h_place_ms_p50", "node.place", 0.50, 1e3)
	scaled("live.h_place_ms_p99", "node.place", 0.99, 1e3)
	// The longest /serve: the handler's own span, or the client's view of a
	// hop whose handler had not returned when the deadline cut it off.
	longest := max(quantile(by["node.serve"], 1), quantile(by["client.hop_serve"], 1))
	rep.set("live.h_serve_max_ms", 1e3*longest, len(by["node.serve"]))
	rep.set("live.serve_stall_s", stallSeconds(spans, from), len(by["node.serve"]))

	calls := 0
	for name, v := range by {
		if short, ok := strings.CutPrefix(name, "node."); ok {
			calls += len(v)
			if short != "other" && short != "measure" {
				rep.set("live.calls_"+short, float64(len(v)), len(v))
			}
		}
	}
	rep.set("live.http_calls_per_req", float64(calls)/float64(max(1, served)), int(served))
	if n := len(by["client.hop_serve"]); n > 0 {
		hops := quantile(by["client.hop_redirect"], 0.5) + quantile(by["client.hop_serve"], 0.5)
		handlers := quantile(by["node.obj"], 0.5) + quantile(by["node.serve"], 0.5)
		rep.set("live.http_overhead_us", 1e6*(hops-handlers), n)
	}
}

// loopbackRTT is the median round trip of a keep-alive GET /healthz: the
// floor under every request latency on this machine.
func loopbackRTT(f *fleet) (seconds float64, n int) {
	client := &http.Client{Timeout: clientTimeout}
	defer client.CloseIdleConnections()
	const rounds = 2000
	rtts := make([]float64, 0, rounds)
	for i := 0; i < rounds; i++ {
		start := time.Now()
		res, err := client.Get(f.urls[0] + live.PathHealth)
		if err != nil {
			continue
		}
		_, _ = io.Copy(io.Discard, res.Body)
		res.Body.Close()
		rtts = append(rtts, time.Since(start).Seconds())
	}
	sort.Float64s(rtts)
	return quantile(rtts, 0.5), len(rtts)
}

// ---- live fleet: request workloads ----------------------------------------------

func tracedLive(ctx context.Context, o runOpts, tr *tracer, root int64, rep *report) error {
	ref := newRefLoop()
	// The untraced reference phase, on a plain fleet of its own.
	refPerS := 0.0
	if o.Workload.Kind == kindClosed {
		var err error
		tr.region(root, "reference run", func() {
			var ls *liveSetup
			if ls, err = setupLive(ctx, o, nil); err == nil {
				run := measureLive(ctx, o, ls, ref, nil)
				ls.close()
				refPerS = perRefSecond(run.blocks)
				rep.attempted += int64(run.sum.attempted)
			}
		})
		if err != nil {
			return err
		}
	}

	var ls *liveSetup
	var err error
	tr.region(root, "setup", func() { ls, err = setupLive(ctx, o, tr) })
	if err != nil {
		return err
	}
	defer ls.close()
	tr.region(root, "probe.loopback_rtt", func() {
		rtt, n := loopbackRTT(ls.fleet)
		rep.set("live.loopback_rtt_us", 1e6*rtt, n)
	})

	var run liveRun
	tr.region(root, "measured phase", func() { run = measureLive(ctx, o, ls, ref, tr) })
	reportLiveRun(o, ls, run, rep)
	checkLiveRun(o, ls, run, rep)
	reportSpanMetrics(tr.snapshot(), run.start, int64(run.sum.served), rep)
	rep.set("live.conn_reuse_ratio", float64(run.sum.reusedHops)/float64(max(1, run.sum.hops)), run.sum.hops)
	if o.Workload.Kind == kindClosed {
		rep.set("trace.overhead_share", overheadShare(refPerS, perRefSecond(run.blocks)), 1)
		tr.region(root, "rate ladder", func() { rateLadder(ctx, o, ls, rep) })
	}
	return nil
}

// ladderRates are the open-loop rates of the informational rate ladder and
// ladderStep how long each is held.
var ladderRates = []float64{500, 2000, 6000}

const ladderStep = 5 * time.Second

// rateLadder offers the quiet fleet a few fixed Poisson rates and reports
// the highest one it meets the latency limit at: 99th percentile inside the
// limit, nothing unsent. It is informational — on a shared two-core box a
// step-quantised maximum does not repeat well enough to gate on.
func rateLadder(ctx context.Context, o runOpts, ls *liveSetup, rep *report) {
	gen := ls.fleet.cfg.Sim.Workload
	step := ladderStep
	if o.Quick {
		step = time.Second
	}
	best := 0.0
	for i, rate := range ladderRates {
		sched := openSchedule(o.Seed+int64(i)+2, gen, len(ls.fleet.urls), rate, step)
		samples, unsent := ls.rq.openLoop(ctx, sched, step)
		sum := summarize(samples, unsent)
		if sum.served == sum.attempted && quantile(sum.total, 0.99) <= latencyLimit.Seconds() {
			best = rate
		}
	}
	rep.set("live.ladder_max_rate_rps", best, len(ladderRates))
}

// ---- live fleet: driver-paced replay ----------------------------------------------

func tracedReplay(ctx context.Context, o runOpts, tr *tracer, root int64, rep *report) error {
	cfg, err := buildLiveConfig(o.Workload, o.Seed, o.Quick)
	if err != nil {
		return err
	}
	var run replayRun
	tr.region(root, "replay", func() {
		run, err = measureReplay(ctx, cfg, 0, tr, func(f *fleet) {
			// A fresh fleet's counters start at zero, so one scrape is the delta.
			after := f.fleetStats()
			before := make([]*live.StatsReply, len(after))
			for i := range before {
				before[i] = &live.StatsReply{}
			}
			stats, busy := statsDelta(before, after)
			reportFleetStats(stats, busy, len(after), rep)
			tr.region(root, "probe.dedup_replay", func() { dedupProbe(f, rep) })
		})
	})
	if err != nil {
		return err
	}
	rep.attempted = simRequests(run.res)
	rep.failed = run.res.FailedRequests
	rep.set("live.fail_share", float64(rep.failed)/float64(max(1, rep.attempted)), int(rep.attempted))
	checkReplay(cfg, []replayRun{run}, rep)
	reportSpanMetrics(tr.snapshot(), run.start, run.res.TotalServed, rep)
	tr.region(root, "probe.wire", func() { wireProbe(rep) })
	return nil
}
