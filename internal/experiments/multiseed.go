package experiments

import (
	"fmt"
	"time"

	"radar/internal/report"
	"radar/internal/stats"
)

// MultiSeed aggregates the paper suite across several seeds, reporting
// each headline metric as mean ± 95% half-width. Simulation results carry
// run-to-run noise (workload sampling, hot-site selection); multi-seed
// aggregation is what makes the paper-vs-measured comparison defensible.
type MultiSeed struct {
	Seeds  []int64
	Suites []*Suite
}

// RunMultiSeed executes the paper suite once per seed. The whole
// seeds x workloads x {static,dynamic} grid is fanned out as one batch on
// the parallel engine, so wall-clock approaches the cost of the slowest
// single run; aggregated results are identical to running the suites
// sequentially.
func RunMultiSeed(base Options, seeds []int64, highLoad bool) (*MultiSeed, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("experiments: no seeds")
	}
	var jobs []Job
	perSeed := 2 * len(WorkloadNames)
	for _, seed := range seeds {
		opts := base
		opts.Seed = seed
		seedJobs, err := suiteJobs(opts, highLoad)
		if err != nil {
			return nil, fmt.Errorf("experiments: seed %d: %w", seed, err)
		}
		for i := range seedJobs {
			seedJobs[i].Label = fmt.Sprintf("seed%d/%s", seed, seedJobs[i].Label)
		}
		jobs = append(jobs, seedJobs...)
	}
	results, err := base.run(jobs)
	if err != nil {
		return nil, err
	}
	ms := &MultiSeed{Seeds: seeds}
	for i, seed := range seeds {
		suite, err := suiteFromResults(results[i*perSeed:(i+1)*perSeed], highLoad)
		if err != nil {
			return nil, fmt.Errorf("experiments: seed %d: %w", seed, err)
		}
		ms.Suites = append(ms.Suites, suite)
	}
	return ms, nil
}

// gather extracts one metric per workload across seeds.
func (ms *MultiSeed) gather(workload string, metric func(*WorkloadRun) float64) []float64 {
	out := make([]float64, 0, len(ms.Suites))
	for _, s := range ms.Suites {
		out = append(out, metric(s.Runs[workload]))
	}
	return out
}

// Table renders the aggregated Figure 6 + Table 2 metrics. Its bytes are
// identical at every engine parallelism level (wall-clock lives in the
// separate Timing tables).
func (ms *MultiSeed) Table() *report.Table {
	t := &report.Table{
		Title: fmt.Sprintf("Paper suite across %d seeds (mean ± 95%% half-width)", len(ms.Seeds)),
		Headers: []string{"workload", "bw reduction %", "latency eq (s)",
			"avg replicas", "overhead %", "max load settled"},
	}
	for _, name := range WorkloadNames {
		t.AddRow(name,
			stats.FormatMeanErr(ms.gather(name, func(r *WorkloadRun) float64 { return r.BandwidthReduction() }), 1),
			stats.FormatMeanErr(ms.gather(name, func(r *WorkloadRun) float64 { return r.Dynamic.LatencyStats.Equilibrium }), 3),
			stats.FormatMeanErr(ms.gather(name, func(r *WorkloadRun) float64 { return r.Dynamic.AvgReplicas }), 2),
			stats.FormatMeanErr(ms.gather(name, func(r *WorkloadRun) float64 { return r.Dynamic.OverheadPercent }), 2),
			stats.FormatMeanErr(ms.gather(name, func(r *WorkloadRun) float64 { return r.Dynamic.MaxLoadSettled }), 1),
		)
	}
	return t
}

// Timing reports per-run wall-clock across all seeds.
func (ms *MultiSeed) Timing() *report.Table {
	t := &report.Table{
		Title:   "Multi-seed run wall-clock (parallel engine)",
		Headers: []string{"run", "wall"},
	}
	for _, s := range ms.Suites {
		for _, rt := range s.Timings {
			t.AddRow(rt.Label, rt.Wall.Round(time.Millisecond).String())
		}
	}
	return t
}
