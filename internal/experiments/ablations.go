package experiments

import (
	"fmt"
	"strings"

	"radar/internal/protocol"
	"radar/internal/report"
	"radar/internal/sim"
)

// A study is one table of the evaluation as a value: the runs to make and
// the metrics to read off each. Options.table fans the points out on the
// parallel engine and assembles the rows in point order, whichever run
// finishes first.
type study struct {
	title   string
	headers []string
	points  []point
	// metrics renders one run into the cells that follow the point's own.
	metrics func(*sim.Results) []string
}

// point is one run of a study: its job label, the leading cells of its
// row and its configuration.
type point struct {
	label string
	cells []string
	cfg   sim.Config
}

// table runs the study and renders one row per point.
func (o Options) table(s study) (*report.Table, error) {
	jobs := make([]Job, len(s.points))
	for i, p := range s.points {
		jobs[i] = Job{Label: p.label, Config: p.cfg}
	}
	results, err := o.run(jobs)
	if err != nil {
		return nil, err
	}
	t := &report.Table{Title: s.title, Headers: s.headers}
	for i, p := range s.points {
		t.AddRow(append(p.cells, s.metrics(results[i].Results)...)...)
	}
	return t, nil
}

// sweep builds one point per value from the workload's dynamic
// configuration: set applies the value, and cells names it in the row and,
// under prefix, in the job label.
func sweep[T any](opts Options, workload, prefix string, values []T, cells func(T) []string, set func(*sim.Config, T)) ([]point, error) {
	base, err := opts.dynamic(workload)
	if err != nil {
		return nil, err
	}
	points := make([]point, len(values))
	for i, v := range values {
		p := point{cells: cells(v), cfg: base}
		p.label = prefix + "/" + strings.Join(p.cells, ",")
		set(&p.cfg, v)
		points[i] = p
	}
	return points, nil
}

// hotSpotMetrics are the columns of the two hot-sites policy comparisons
// (A1, A6): whether hot spots and their latency persist.
func hotSpotMetrics(res *sim.Results) []string {
	return []string{
		report.F(res.BandwidthStats.Equilibrium, 0),
		report.F(res.LatencyStats.Equilibrium, 3),
		report.F(res.MaxLoadSettled, 1),
		fmt.Sprint(res.TimedOutRequests),
		report.F(res.AvgReplicas, 2),
	}
}

// AblationDistribution compares the paper's request distribution algorithm
// against the §3 strawmen on the hot-sites workload, where both failure
// modes are visible: round-robin wastes proximity (high bandwidth), and
// closest-replica cannot relieve a host swamped by requests from its own
// vicinity — "no matter how many additional replicas the server creates,
// all requests will be sent to it anyway" (§3) — so its hot spots and
// latency persist.
func AblationDistribution(opts Options) (*report.Table, error) {
	points, err := sweep(opts, "hot-sites", "policy",
		[]protocol.Policy{protocol.PolicyPaper, protocol.PolicyRoundRobin, protocol.PolicyClosest},
		func(pol protocol.Policy) []string { return []string{pol.String()} },
		func(cfg *sim.Config, pol protocol.Policy) { cfg.Policy = pol })
	if err != nil {
		return nil, err
	}
	return opts.table(study{
		title:   "Ablation A1 (§3): request distribution policies on hot-sites",
		headers: []string{"policy", "bw equilibrium (B·hops/s)", "latency eq (s)", "max load settled", "timeouts", "avg replicas"},
		points:  points,
		metrics: hotSpotMetrics,
	})
}

// AblationFullReplication probes the §4 claim that needless replicas are
// harmful. The harm is demand-dependent: under symmetric demand (zipf,
// requested equally from everywhere) a replica on every node lets every
// request stay local, so full replication wins bandwidth and only wastes
// storage (53x the replicas). Under asymmetric demand (regional) the
// load-oblivious distributor sees 40+ nearly idle remote replicas of each
// regional object as least-requested and ships a steady stream of requests
// across the world — the §4 spillover harm — so full replication loses to
// the protocol's selective placement despite infinite storage.
func AblationFullReplication(opts Options) (*report.Table, error) {
	var points []point
	for _, name := range []string{"zipf", "regional"} {
		dyn, err := opts.dynamic(name)
		if err != nil {
			return nil, err
		}
		full := dyn
		full.Duration = opts.staticDuration()
		full.DynamicPlacement = false
		full.ReplicateEverywhere = true
		points = append(points,
			point{"full/" + name, []string{name, "replicate everywhere"}, full},
			point{"dynamic/" + name, []string{name, "dynamic (paper)"}, dyn})
	}
	return opts.table(study{
		title:   "Ablation A2 (§4): replicate-everywhere vs selective dynamic placement",
		headers: []string{"workload", "placement", "bw equilibrium (B·hops/s)", "latency eq (s)", "avg replicas"},
		points:  points,
		metrics: func(res *sim.Results) []string {
			return []string{
				report.F(res.BandwidthStats.Equilibrium, 0),
				report.F(res.LatencyStats.Equilibrium, 3),
				report.F(res.AvgReplicas, 2),
			}
		},
	})
}

// AblationConstant sweeps the request distribution constant (§6.1 names it
// a tunable; the paper fixes 2).
func AblationConstant(opts Options) (*report.Table, error) {
	points, err := sweep(opts, "hot-pages", "constant", []float64{1.5, 2, 3, 4},
		func(c float64) []string { return []string{report.F(c, 1)} },
		func(cfg *sim.Config, c float64) { cfg.Protocol.DistConstant = c })
	if err != nil {
		return nil, err
	}
	return opts.table(study{
		title:   "Ablation A3 (§6.1): distribution constant sweep on hot-pages",
		headers: []string{"constant", "bw equilibrium (B·hops/s)", "latency eq (s)", "max load settled", "avg replicas"},
		points:  points,
		metrics: func(res *sim.Results) []string {
			return []string{
				report.F(res.BandwidthStats.Equilibrium, 0),
				report.F(res.LatencyStats.Equilibrium, 3),
				report.F(res.MaxLoadSettled, 1),
				report.F(res.AvgReplicas, 2),
			}
		},
	})
}

// AblationThresholds sweeps the deletion threshold u and the m/u ratio
// (§6.1 discusses both tradeoffs; the theory requires m > 4u).
func AblationThresholds(opts Options) (*report.Table, error) {
	type pt struct{ u, ratio float64 }
	points, err := sweep(opts, "hot-pages", "thresholds",
		[]pt{{0.015, 6}, {0.03, 4.5}, {0.03, 6}, {0.03, 9}, {0.06, 6}},
		func(p pt) []string { return []string{report.F(p.u, 3), report.F(p.ratio, 1)} },
		func(cfg *sim.Config, p pt) {
			cfg.Protocol.DeletionThreshold = p.u
			cfg.Protocol.ReplicationThreshold = p.u * p.ratio
		})
	if err != nil {
		return nil, err
	}
	return opts.table(study{
		title:   "Ablation A4 (§6.1): deletion/replication threshold sweep on hot-pages",
		headers: []string{"u (req/s)", "m/u", "bw equilibrium (B·hops/s)", "avg replicas", "drops", "overhead %"},
		points:  points,
		metrics: func(res *sim.Results) []string {
			return []string{
				report.F(res.BandwidthStats.Equilibrium, 0),
				report.F(res.AvgReplicas, 2),
				fmt.Sprint(res.Counters.Drops),
				report.F(res.OverheadPercent, 2),
			}
		},
	})
}

// AblationNeighborOnly compares the paper's protocol against the
// related-work baseline it critiques in §1.1 (ADR / WebWave style):
// replicas may only be created on direct topology neighbors and requests
// always go to the closest replica. Under hot-sites demand the baseline
// can neither shed a swamped host's local requests (closest routing keeps
// sending them back) nor create distant replicas directly, so hot spots
// and bandwidth linger.
func AblationNeighborOnly(opts Options) (*report.Table, error) {
	points, err := sweep(opts, "hot-sites", "variant", []bool{false, true},
		func(adr bool) []string {
			if adr {
				return []string{"neighbor-only + closest (ADR/WebWave style)"}
			}
			return []string{"paper protocol"}
		},
		func(cfg *sim.Config, adr bool) {
			if adr {
				cfg.Protocol.NeighborOnly = true
				cfg.Policy = protocol.PolicyClosest
			}
		})
	if err != nil {
		return nil, err
	}
	return opts.table(study{
		title:   "Ablation A6 (§1.1): paper protocol vs neighbor-only placement + closest routing (hot-sites)",
		headers: []string{"protocol", "bw equilibrium (B·hops/s)", "latency eq (s)", "max load settled", "timeouts", "avg replicas"},
		points:  points,
		metrics: hotSpotMetrics,
	})
}

// AblationBulkOffload compares the paper's en-masse offloading (enabled by
// the Theorem 1-4 load bounds) against moving one object per placement
// round (§1.2: without bulk relocation "a system of our intended scale
// would be hopelessly slow in adjusting to demand changes"). Measured on
// hot-sites, where offloading does the heavy lifting.
func AblationBulkOffload(opts Options) (*report.Table, error) {
	points, err := sweep(opts, "hot-sites", "offload-cap", []int{0, 1},
		func(cap int) []string {
			if cap == 1 {
				return []string{"one per round"}
			}
			return []string{"en masse (paper)"}
		},
		func(cfg *sim.Config, cap int) { cfg.Protocol.MaxOffloadPerRun = cap })
	if err != nil {
		return nil, err
	}
	return opts.table(study{
		title:   "Ablation A5 (§1.2): en-masse vs one-object-per-round offloading on hot-sites",
		headers: []string{"offload mode", "adjustment (min)", "max load settled", "latency eq (s)", "load moves"},
		points:  points,
		metrics: func(res *sim.Results) []string {
			adj := "not settled"
			if res.Adjusted {
				adj = report.Mins(res.AdjustmentTime)
			}
			return []string{adj,
				report.F(res.MaxLoadSettled, 1),
				report.F(res.LatencyStats.Equilibrium, 3),
				fmt.Sprint(res.Counters.LoadMigrations + res.Counters.LoadReplications),
			}
		},
	})
}

// Ablation pairs an ablation's report name with its runner.
type Ablation struct {
	Name string
	Run  func(Options) (*report.Table, error)
}

// Ablations lists every ablation in presentation order (A1..A8).
var Ablations = []Ablation{
	{"A1 distribution policies", AblationDistribution},
	{"A2 full replication", AblationFullReplication},
	{"A3 distribution constant", AblationConstant},
	{"A4 thresholds", AblationThresholds},
	{"A5 bulk offload", AblationBulkOffload},
	{"A6 neighbor-only", AblationNeighborOnly},
	{"A7 oracle", AblationOracle},
	{"A8 redirectors", AblationRedirectors},
}

// RunAblations executes every registered ablation and returns the tables
// in registry order. Ablations run one after another, but each fans its
// own sweep points out on the parallel engine.
func RunAblations(opts Options) ([]*report.Table, error) {
	tables := make([]*report.Table, 0, len(Ablations))
	for _, ab := range Ablations {
		tbl, err := ab.Run(opts)
		if err != nil {
			return nil, fmt.Errorf("experiments: ablation %s: %w", ab.Name, err)
		}
		tables = append(tables, tbl)
	}
	return tables, nil
}
