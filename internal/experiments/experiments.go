// Package experiments defines one runnable experiment per table and figure
// in the paper's evaluation (§6), plus the ablations DESIGN.md calls out.
// Figures 6, 7, 8a/8b and Table 2 all derive from the same four workload
// runs, so the package runs each configuration once and extracts every
// artifact from the shared results.
package experiments

import (
	"context"
	"fmt"
	"time"

	"radar/internal/object"
	"radar/internal/protocol"
	"radar/internal/scenario"
	"radar/internal/sim"
	"radar/internal/substrate"
	"radar/internal/topology"
	"radar/internal/workload"
)

// WorkloadNames lists the paper's four workloads in presentation order.
var WorkloadNames = []string{"hot-sites", "hot-pages", "zipf", "regional"}

// Options scales an experiment run.
type Options struct {
	// Seed drives all randomness.
	Seed int64
	// Quick shrinks the object universe and run length so the whole suite
	// finishes in tens of seconds (for benchmarks and CI); the full-scale
	// runs reproduce Table 1 exactly.
	Quick bool
	// Parallelism bounds how many simulations run concurrently in
	// RunSuite, RunMultiSeed and the ablations; <= 0 selects GOMAXPROCS.
	// Results are bit-identical at every parallelism level.
	Parallelism int
	// over shrinks runs far below Quick scale; tests use it to exercise
	// the whole suite pipeline in seconds.
	over *scaleOverride
}

// scaleOverride is the test-only scale knob (see Options.over).
type scaleOverride struct {
	Objects         int
	Dynamic, Static time.Duration
}

// run executes jobs on the engine every batch entry point shares.
func (o Options) run(jobs []Job) ([]JobResult, error) {
	return Engine{Parallelism: o.Parallelism}.Run(context.Background(), jobs)
}

// universe returns the object universe for the scale.
func (o Options) universe() object.Universe {
	if o.over != nil {
		return object.Universe{Count: o.over.Objects, SizeBytes: 12 << 10}
	}
	if o.Quick {
		return object.Universe{Count: 2000, SizeBytes: 12 << 10}
	}
	return object.Universe{Count: 10000, SizeBytes: 12 << 10}
}

// dynamicDuration is the simulated span for dynamic runs; hot-sites needs
// longer to fully drain its initial backlog.
func (o Options) dynamicDuration(workloadName string) time.Duration {
	if o.over != nil {
		return o.over.Dynamic
	}
	base := 40 * time.Minute
	if workloadName == "hot-sites" {
		base = 55 * time.Minute
	}
	if o.Quick {
		return base / 2
	}
	return base
}

// staticDuration is the simulated span for static baseline runs; static
// placement reaches steady state immediately.
func (o Options) staticDuration() time.Duration {
	if o.over != nil {
		return o.over.Static
	}
	if o.Quick {
		return 5 * time.Minute
	}
	return 10 * time.Minute
}

// WorkloadRun pairs a workload's dynamic run with its static baseline.
type WorkloadRun struct {
	Name    string
	Dynamic *sim.Results
	// Static is the no-replication baseline under the same demand. For
	// hot-sites the static system is permanently saturated (that is the
	// point of the workload), so its equilibrium is not meaningful as a
	// baseline; use the hot-pages static level, which has the identical
	// access pattern (the paper makes the same observation in §6.2).
	Static *sim.Results
}

// BandwidthReduction returns the equilibrium bandwidth reduction against
// the static baseline, in percent.
func (wr *WorkloadRun) BandwidthReduction() float64 {
	if wr.Static == nil || wr.Static.BandwidthStats.Equilibrium == 0 {
		return 0
	}
	return 100 * (wr.Static.BandwidthStats.Equilibrium - wr.Dynamic.BandwidthStats.Equilibrium) /
		wr.Static.BandwidthStats.Equilibrium
}

// LatencyReduction returns the equilibrium latency reduction against the
// static baseline, in percent.
func (wr *WorkloadRun) LatencyReduction() float64 {
	if wr.Static == nil || wr.Static.LatencyStats.Equilibrium == 0 {
		return 0
	}
	return 100 * (wr.Static.LatencyStats.Equilibrium - wr.Dynamic.LatencyStats.Equilibrium) /
		wr.Static.LatencyStats.Equilibrium
}

// Suite holds the shared runs behind Figures 6, 7, 8a, 8b and Table 2 (or
// their Figure 9 high-load variants).
type Suite struct {
	Runs     map[string]*WorkloadRun
	HighLoad bool
	// Timings records each run's wall-clock, in job order (suiteJobs).
	// Wall times vary run to run, so the timing table is rendered
	// separately from the deterministic artifacts.
	Timings []RunTiming
}

// RunTiming is one run's wall-clock cost.
type RunTiming struct {
	Label string
	Wall  time.Duration
}

// config returns the Table 1 configuration of a run under the named
// workload at the options' scale, built by scenario.Spec.Config: dynamic
// placement, or with static the no-replication baseline; highLoad selects
// the Figure 9 watermarks.
func (o Options) config(name string, static, highLoad bool) (sim.Config, error) {
	duration := o.dynamicDuration(name)
	if static {
		duration = o.staticDuration()
	}
	return scenario.Spec{
		Workload: name, Objects: o.universe().Count, Duration: duration, Seed: o.Seed,
		Policy: protocol.PolicyPaper, HighLoad: highLoad, Static: static,
	}.Config()
}

// dynamic returns the Table 1 configuration of a dynamic-placement run
// under the named workload.
func (o Options) dynamic(name string) (sim.Config, error) { return o.config(name, false, false) }

// trackedHotSite returns a node that the hot-sites workload overloads, so
// the Figure 8b trace shows estimates doing real work.
func trackedHotSite(u object.Universe, topo *topology.Topology, seed int64) topology.NodeID {
	gen, err := workload.Named("hot-sites", u, topo, seed)
	if err != nil {
		return 0
	}
	hs := gen.(*workload.HotSites)
	for n := 0; n < topo.NumNodes(); n++ {
		pages := u.ObjectsHomedAt(topology.NodeID(n), topo.NumNodes())
		if len(pages) == 0 {
			continue
		}
		if hs.IsHot(pages[0]) {
			return topology.NodeID(n)
		}
	}
	return 0
}

// suiteJobs builds the suite's job list, in WorkloadNames order: a static
// baseline and a dynamic run per workload, except that hot-sites has no
// static run. Its static level saturates forever, so the suite uses
// hot-pages' (identical access pattern, §6.2).
func suiteJobs(opts Options, highLoad bool) ([]Job, error) {
	tracked := trackedHotSite(opts.universe(), substrate.UUNET().Topo, opts.Seed)
	jobs := make([]Job, 0, suiteRuns())
	for _, name := range WorkloadNames {
		if name != "hot-sites" {
			staticCfg, err := opts.config(name, true, highLoad)
			if err != nil {
				return nil, err
			}
			jobs = append(jobs, Job{Label: "static/" + name, Config: staticCfg})
		}
		dynCfg, err := opts.config(name, false, highLoad)
		if err != nil {
			return nil, err
		}
		if name == "hot-sites" {
			dynCfg.TrackedHost = tracked
		}
		jobs = append(jobs, Job{Label: "dynamic/" + name, Config: dynCfg})
	}
	return jobs, nil
}

// suiteRuns is the length of suiteJobs' list.
func suiteRuns() int { return 2*len(WorkloadNames) - 1 }

// suiteFromResults assembles a Suite from suiteJobs results.
func suiteFromResults(results []JobResult, highLoad bool) (*Suite, error) {
	if len(results) != suiteRuns() {
		return nil, fmt.Errorf("experiments: suite expects %d results, got %d", suiteRuns(), len(results))
	}
	suite := &Suite{Runs: make(map[string]*WorkloadRun), HighLoad: highLoad}
	next := results
	for _, name := range WorkloadNames {
		run := &WorkloadRun{Name: name}
		if name != "hot-sites" {
			run.Static, next = next[0].Results, next[1:]
		}
		run.Dynamic, next = next[0].Results, next[1:]
		suite.Runs[name] = run
	}
	for _, r := range results {
		suite.Timings = append(suite.Timings, RunTiming{Label: r.Label, Wall: r.Wall})
	}
	suite.Runs["hot-sites"].Static = suite.Runs["hot-pages"].Static
	return suite, nil
}

// RunSuite executes the four paper workloads (dynamic plus static
// baselines) at the given load level and returns the shared results.
// highLoad selects the Figure 9 watermarks (50/40) instead of Table 1's
// (90/80). The seven runs execute concurrently on the engine's worker
// pool; results are identical to a sequential execution.
func RunSuite(opts Options, highLoad bool) (*Suite, error) {
	jobs, err := suiteJobs(opts, highLoad)
	if err != nil {
		return nil, err
	}
	results, err := opts.run(jobs)
	if err != nil {
		return nil, err
	}
	return suiteFromResults(results, highLoad)
}

func runOne(ctx context.Context, cfg sim.Config) (*sim.Results, error) {
	s, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	res, err := s.RunContext(ctx)
	if err != nil {
		return nil, err
	}
	if res.InvariantsError != nil {
		return nil, fmt.Errorf("invariants violated: %w", res.InvariantsError)
	}
	return res, nil
}
