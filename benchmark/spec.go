package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"
)

// The benchmark's vocabulary: workloads, end-to-end metrics and per-layer
// metrics. BENCHMARK.json at the repository root repeats the names, units
// and bounds; run.sh and TestBenchmarkJSONMatchesSpec keep the two in step.

// metricDef names one metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which the metric may
	// worsen before a change counts as a regression (end-to-end metrics
	// only; per-layer metrics are informational).
	Bound float64
}

// endToEnd are the metrics every workload reports on an untraced run. They
// are the ones that mean the same thing for the simulator and for the live
// fleet; request latency and the miss share exist only where a client waits
// for an answer, so they are reported per layer (live.total_*, live.miss_share).
//
// Throughput is counted in reference seconds (refloop.go): on the shared
// two-core box this was recorded on, the wall clock's own requests per
// second move by 20 to 45 % with the neighbours' load on the memory system,
// within a run and from one minute to the next. The two timed metrics still
// carry the widest bound allowed; the counted metrics repeat to within
// 3.5 % across seeds.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"served_per_ref_s", "req/s", "higher", 0.25},
	{"allocs_per_req", "1/req", "lower", 0.12},
	{"bytes_per_req", "B/req", "lower", 0.10},
	{"live_heap_mb", "MB", "lower", 0.10},
}

// requestMetrics are measured on untraced runs of the workloads that have
// a waiting client and printed with the end-to-end table by the ledger; the
// single-run contract carries them as per-layer metrics (see perLayer).
var requestMetrics = []metricDef{
	{"live.total_p50_ms", "ms", "lower", 0.10},
	{"live.total_p99_ms", "ms", "lower", 0.15},
	{"live.miss_share", "ratio", "lower", 0},
	{"live.fail_share", "ratio", "lower", 0},
}

// rawMetrics are what served_per_ref_s is made of, by the wall clock: every
// untraced run measures them, the ledger prints them, nothing judges them.
var rawMetrics = []metricDef{
	{"raw.served_per_s", "req/s", "higher", 0},
	{"raw.ref_lap_ms", "ms", "lower", 0},
}

// runSeconds is the length of the measured phase the PR driver asks for:
// with three driver workloads, 70 runs of some 40 s fit the driver's hour.
const runSeconds = 30

// printBenchmarkJSON writes the repository's BENCHMARK.json: the driver's
// view of this spec. run.sh refuses to run, and
// TestBenchmarkJSONMatchesSpec fails, when the committed file differs.
func printBenchmarkJSON(w io.Writer) error {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type bounded struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	file := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []bounded  `json:"end_to_end"`
		PerLayer   []layer    `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, wl := range workloads {
		if wl.Driver {
			file.Workloads = append(file.Workloads, workload{wl.Name, wl.Why})
		}
	}
	for _, d := range endToEnd {
		file.EndToEnd = append(file.EndToEnd, bounded{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		file.PerLayer = append(file.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(file)
}

// Kinds of workload.
const (
	kindSim    = "sim"
	kindClosed = "live-closed"
	kindOpen   = "live-open"
	kindReplay = "live-replay"
)

// workloadDef is one benchmark workload. DSL is the scenario composition
// with %d standing for the seed; Quick is the reduced composition the
// package's own smoke test runs.
type workloadDef struct {
	Name string
	Kind string
	// Driver marks the workloads BENCHMARK.json lists, which the PR driver
	// runs 22 times each inside an hour: the three that are one thread of
	// fixed work or a two-client closed loop, at 30 s a run. The others run
	// by name and in the ledger only: four shard workers on two cores, a
	// driver-paced fleet and an open loop whose result the first placement
	// round decides did not repeat within the bound on the driver's machine,
	// and seven workloads leave a run no more than ten seconds.
	Driver bool
	Why    string
	DSL    string
	Quick  string
	// Big selects the radar-bench bigrun substrate (transit-stub, 256
	// hosts) in place of the DSL's UUNET backbone; Shards the sharded engine.
	Big    bool
	Shards int
	// PinnedHash is the FNV-64a of the JSON Results at seed 1.
	PinnedHash string
}

const zipfFleetDSL = "workload:zipf; objects:2000; seed:%d"

var workloads = []workloadDef{
	{
		Name: "sim-zipf", Kind: kindSim, Driver: true,
		Why:        "Table 1 default run, 5.09 M simulated requests: the serve plane (event queue, replica choice, request accounting) does the work",
		DSL:        "workload:zipf; objects:10000; duration:40m; rps:40; seed:%d",
		Quick:      "workload:zipf; objects:500; duration:2m; rps:40; seed:%d",
		PinnedHash: "d019481419ad179c",
	},
	{
		Name: "sim-churn", Kind: kindSim, Driver: true,
		Why: "hot sites under scripted crashes and a lossy control plane: placement, control RPCs and reconciliation do the work, the mirror image of sim-zipf",
		DSL: "workload:hot-sites; highload; objects:20000; duration:40m; rps:8; seed:%d; floor:2; avail:0.5; " +
			"faults:drop:0.2|dup:0.05|cdelay:20ms|" + crashEvery30s(76, "2m"),
		Quick: "workload:hot-sites; highload; objects:1000; duration:4m; rps:8; seed:%d; floor:2; avail:0.5; " +
			"faults:drop:0.2|dup:0.05|cdelay:20ms|" + crashEvery30s(6, "20s"),
		PinnedHash: "1d9dd9ea01c651ec",
	},
	{
		Name: "sim-bigrun", Kind: kindSim, Big: true,
		Why:        "256 hosts and 100 000 objects on the serial engine: set-up, memory and cache behaviour dominate",
		DSL:        "workload:zipf; objects:100000; duration:5m; rps:40; seed:%d",
		Quick:      "workload:zipf; objects:2000; duration:20s; rps:40; seed:%d",
		PinnedHash: "b258333bc9c5c5db",
	},
	{
		Name: "sim-bigrun-sharded", Kind: kindSim, Big: true, Shards: 4,
		Why:        "the same run on four shards (wheels, barrier, merge): with sim-bigrun it is the evidence for keeping or deleting the sharded engine",
		DSL:        "workload:zipf; objects:100000; duration:5m; rps:40; seed:%d",
		Quick:      "workload:zipf; objects:2000; duration:20s; rps:40; seed:%d",
		PinnedHash: "b258333bc9c5c5db",
	},
	{
		Name: "live-quiet", Kind: kindClosed, Driver: true,
		Why:   "closed loop against a 53-node loopback fleet with no placement pass inside the run: the bare request path /obj -> 302 -> /serve",
		DSL:   zipfFleetDSL,
		Quick: zipfFleetDSL,
	},
	{
		Name: "live-placing", Kind: kindOpen,
		Why:   "open loop at a fixed Poisson rate while placement rounds run every 5 s: shows how far placement stalls serving (node lock held across peer RPCs)",
		DSL:   zipfFleetDSL,
		Quick: zipfFleetDSL,
	},
	{
		Name: "live-replay", Kind: kindReplay,
		Why:   "driver-paced replay through the nodes' control endpoints with deterministic call counts; the result must equal the simulator's",
		DSL:   "workload:zipf; objects:2000; duration:2m; rps:2; seed:%d",
		Quick: "workload:zipf; objects:200; duration:20s; rps:5; seed:%d",
	},
}

// crashEvery30s scripts count host crashes, one every 30 simulated seconds,
// walking the 53 hosts in steps of 7 so neighbours in time are not
// neighbours in the backbone. sim-churn scripts its crashes in place of the
// DSL's mtbf/mttr terms because those draw the number of crashes from the
// seed: the work per request then moves by 7 % from one seed to the next,
// which is wider than the bound a regression is judged by.
func crashEvery30s(count int, downtime string) string {
	terms := make([]string, count)
	for k := range terms {
		terms[k] = fmt.Sprintf("crash:%d@%ds+%s", 7*(k+1)%53, 30*(k+1), downtime)
	}
	return strings.Join(terms, "|")
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}

// dsl returns the workload's composition for a seed.
func (w workloadDef) dsl(seed int64, quick bool) string {
	if quick {
		return fmt.Sprintf(w.Quick, seed)
	}
	return fmt.Sprintf(w.DSL, seed)
}

// Load-generator constants shared by the live workloads.
const (
	// latencyLimit is the per-request limit a miss is judged against,
	// timed from the instant the request was due.
	latencyLimit = 50 * time.Millisecond
	// clientTimeout bounds one HTTP hop, as live.FreeDriver does. A hop given
	// up on is a miss (timed out), not a failed operation.
	clientTimeout = 5 * time.Second
	// warmupRequests are issued before the measured phase so every
	// redirector and replica host has an open keep-alive connection.
	warmupRequests = 4000
	// openLoopRate is live-placing's Poisson arrival rate.
	openLoopRate = 1200.0
	// openLoopStart is when, after the fleet's epoch, live-placing's window
	// opens: late enough for set-up and warm-up to be over, and four seconds
	// before the first placement round.
	openLoopStart = time.Second
	// drainLimit is how long an open loop may run past its window to send
	// what it still owes; anything unsent by then is a miss.
	drainLimit = 5 * time.Second
	// stallLimit marks a /serve handler span as a stall.
	stallLimit = 250 * time.Millisecond
	// lateLimit invalidates an open-loop run on an unstalled fleet when
	// the generator itself ran later than this at its 99th percentile.
	lateLimit = 5 * time.Millisecond
	// minOpenLoopSamples is the fewest arrivals an open-loop run may judge.
	minOpenLoopSamples = 10000
)

// perLayer lists the per-layer metrics in the order they are printed.
// Layers are package names; loadgen and trace are the benchmark's own.
var perLayer = []metricDef{
	{"workload.next_ns", "ns", "lower", 0},
	{"workload.est_share", "ratio", "lower", 0},

	{"simevent.heap_ns_per_event", "ns", "lower", 0},
	{"simevent.heap_allocs_per_event", "1/op", "lower", 0},
	{"simevent.wheel_ns_per_event", "ns", "lower", 0},
	{"simevent.est_share", "ratio", "lower", 0},

	{"routing.build_ms", "ms", "lower", 0},
	{"routing.distance_ns", "ns", "lower", 0},
	{"routing.prefpath_ns", "ns", "lower", 0},
	{"routing.est_share", "ratio", "lower", 0},

	{"protocol.choose_ns", "ns", "lower", 0},
	{"protocol.choose_allocs", "1/op", "lower", 0},
	{"protocol.choose_est_share", "ratio", "lower", 0},
	{"protocol.onrequest_ns", "ns", "lower", 0},
	{"protocol.onrequest_est_share", "ratio", "lower", 0},
	{"protocol.place_round_ms", "ms", "lower", 0},
	{"protocol.place_ns_per_object", "ns", "lower", 0},
	{"protocol.place_est_share", "ratio", "lower", 0},
	{"protocol.moves", "count", "higher", 0},
	{"protocol.drops", "count", "lower", 0},
	{"protocol.refusals", "count", "lower", 0},
	{"protocol.deferred", "count", "lower", 0},
	{"protocol.accept_ratio", "ratio", "higher", 0},

	{"server.enqueue_served_ns", "ns", "lower", 0},
	{"server.est_share", "ratio", "lower", 0},

	{"simnet.transfer_ns", "ns", "lower", 0},
	{"simnet.control_ns", "ns", "lower", 0},
	{"simnet.est_share", "ratio", "lower", 0},

	{"metrics.record_ns", "ns", "lower", 0},
	{"metrics.est_share", "ratio", "lower", 0},
	{"metrics.merge_ms", "ms", "lower", 0},

	{"ctrlplane.call_ns", "ns", "lower", 0},
	{"ctrlplane.est_share", "ratio", "lower", 0},
	{"ctrlplane.attempts", "count", "lower", 0},
	{"ctrlplane.retries", "count", "lower", 0},
	{"ctrlplane.retry_ratio", "ratio", "lower", 0},
	{"ctrlplane.lost", "count", "lower", 0},

	{"fault.timeline_ms", "ms", "lower", 0},

	{"sim.new_ms", "ms", "lower", 0},
	{"sim.run_s", "s", "lower", 0},
	{"sim.attributed_share", "ratio", "higher", 0},
	{"sim.gc_cpu_share", "ratio", "lower", 0},
	{"sim.sharded_speedup", "ratio", "higher", 0},
	{"sim.sharded_alloc_ratio", "ratio", "lower", 0},
	{"sim.sharded_heap_ratio", "ratio", "lower", 0},

	{"live.total_p50_ms", "ms", "lower", 0},
	{"live.total_p99_ms", "ms", "lower", 0},
	{"live.total_p999_ms", "ms", "lower", 0},
	{"live.miss_share", "ratio", "lower", 0},
	{"live.fail_share", "ratio", "lower", 0},
	{"live.ladder_max_rate_rps", "req/s", "higher", 0},

	{"live.hop_redirect_us_p50", "us", "lower", 0},
	{"live.hop_redirect_us_p99", "us", "lower", 0},
	{"live.hop_serve_us_p50", "us", "lower", 0},
	{"live.hop_serve_us_p99", "us", "lower", 0},
	{"live.conn_reuse_ratio", "ratio", "higher", 0},
	{"live.loopback_rtt_us", "us", "lower", 0},

	{"live.h_obj_us_p50", "us", "lower", 0},
	{"live.h_obj_us_p99", "us", "lower", 0},
	{"live.h_serve_us_p50", "us", "lower", 0},
	{"live.h_serve_us_p99", "us", "lower", 0},
	{"live.h_serve_max_ms", "ms", "lower", 0},
	{"live.h_createobj_us_p50", "us", "lower", 0},
	{"live.h_createobj_us_p99", "us", "lower", 0},
	{"live.h_notify_us_p50", "us", "lower", 0},
	{"live.h_load_us_p50", "us", "lower", 0},
	{"live.h_complete_us_p50", "us", "lower", 0},
	{"live.h_measure_us_p50", "us", "lower", 0},
	{"live.h_place_ms_p50", "ms", "lower", 0},
	{"live.h_place_ms_p99", "ms", "lower", 0},
	{"live.calls_obj", "count", "lower", 0},
	{"live.calls_serve", "count", "lower", 0},
	{"live.calls_createobj", "count", "lower", 0},
	{"live.calls_notify", "count", "lower", 0},
	{"live.calls_load", "count", "lower", 0},
	{"live.calls_complete", "count", "lower", 0},
	{"live.calls_place", "count", "lower", 0},
	{"live.http_calls_per_req", "1/req", "lower", 0},
	{"live.http_overhead_us", "us", "lower", 0},
	{"live.serve_stall_s", "s", "lower", 0},

	{"live.rpc_attempts", "count", "lower", 0},
	{"live.rpc_retries", "count", "lower", 0},
	{"live.rpc_retry_ratio", "ratio", "lower", 0},
	{"live.rpc_lost", "count", "lower", 0},
	{"live.rpc_budget_denials", "count", "lower", 0},
	{"live.create_executions", "count", "higher", 0},
	{"live.create_peak_concurrency", "count", "lower", 0},
	{"live.place_ticks", "count", "higher", 0},
	{"live.encode_ns", "ns", "lower", 0},
	{"live.decode_ns", "ns", "lower", 0},
	{"live.dedup_replay_us", "us", "lower", 0},

	{"loadgen.late_p50_us", "us", "lower", 0},
	{"loadgen.late_p99_us", "us", "lower", 0},
	{"loadgen.unsent", "count", "lower", 0},
	{"loadgen.timed_out", "count", "lower", 0},
	{"trace.overhead_share", "ratio", "lower", 0},
}
