// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus the DESIGN.md ablations. Each Benchmark corresponds to
// one published artifact; run them all with
//
//	go test -bench=. -benchmem
//
// The underlying simulation suites run at reduced ("quick") scale so the
// whole harness finishes in minutes; cmd/radar-experiments regenerates the
// artifacts at full paper scale. Suites and ablations are executed once
// and cached; iterations then measure artifact extraction. Key reproduced
// values are attached as custom benchmark metrics and the rendered tables
// are logged with -v.
package radar_test

import (
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"radar"
	"radar/internal/experiments"
	"radar/internal/report"
)

var benchOpts = experiments.Options{Seed: 1, Quick: true}

var (
	lowOnce   sync.Once
	lowSuite  *experiments.Suite
	lowErr    error
	highOnce  sync.Once
	highSuite *experiments.Suite
	highErr   error
)

func suite(b *testing.B, highLoad bool) *experiments.Suite {
	b.Helper()
	if highLoad {
		highOnce.Do(func() { highSuite, highErr = experiments.RunSuite(benchOpts, true) })
		if highErr != nil {
			b.Fatal(highErr)
		}
		return highSuite
	}
	lowOnce.Do(func() { lowSuite, lowErr = experiments.RunSuite(benchOpts, false) })
	if lowErr != nil {
		b.Fatal(lowErr)
	}
	return lowSuite
}

func logTable(b *testing.B, t *report.Table) {
	b.Helper()
	var sb strings.Builder
	if err := t.Render(&sb); err != nil {
		b.Fatal(err)
	}
	b.Log("\n" + sb.String())
}

// BenchmarkTable1Defaults validates that the library defaults reproduce
// the paper's Table 1 simulation parameters.
func BenchmarkTable1Defaults(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := radar.DefaultConfig(radar.Zipf)
		if cfg.Objects != 10000 {
			b.Fatalf("defaults diverge from Table 1: %+v", cfg)
		}
	}
	b.Log("Table 1: 10000 objects x 12KB, placement 100s, 40 req/s/node, capacity 200 req/s, " +
		"10ms/hop, 350KB/s links, hw/lw 90/80 (50/40 high load), u=0.03, m=0.18")
}

// BenchmarkFigure6 regenerates the bandwidth/latency comparison for the
// four workloads (dynamic vs static).
func BenchmarkFigure6(b *testing.B) {
	s := suite(b, false)
	b.ResetTimer()
	var tbl *report.Table
	for i := 0; i < b.N; i++ {
		tbl = s.Figure6()
	}
	b.StopTimer()
	logTable(b, tbl)
	for _, name := range experiments.WorkloadNames {
		b.ReportMetric(s.Runs[name].BandwidthReduction(), "bwred%"+shortName(name))
	}
}

// BenchmarkFigure7 regenerates the protocol overhead analysis.
func BenchmarkFigure7(b *testing.B) {
	s := suite(b, false)
	b.ResetTimer()
	var tbl *report.Table
	for i := 0; i < b.N; i++ {
		tbl = s.Figure7()
	}
	b.StopTimer()
	logTable(b, tbl)
	worst := 0.0
	for _, name := range experiments.WorkloadNames {
		if o := s.Runs[name].Dynamic.OverheadPercent; o > worst {
			worst = o
		}
	}
	b.ReportMetric(worst, "worst-overhead-%")
	if worst > 2.5 {
		b.Fatalf("overhead %.2f%% exceeds the paper's 2.5%% ceiling", worst)
	}
}

// BenchmarkFigure8a regenerates the maximum-load analysis.
func BenchmarkFigure8a(b *testing.B) {
	s := suite(b, false)
	b.ResetTimer()
	var tbl *report.Table
	for i := 0; i < b.N; i++ {
		tbl = s.Figure8a()
	}
	b.StopTimer()
	logTable(b, tbl)
	b.ReportMetric(s.Runs["hot-sites"].Dynamic.MaxLoadSettled, "hot-sites-settled-load")
}

// BenchmarkFigure8b regenerates the load-estimate sandwich analysis for
// the tracked hot site.
func BenchmarkFigure8b(b *testing.B) {
	s := suite(b, false)
	b.ResetTimer()
	var tbl *report.Table
	for i := 0; i < b.N; i++ {
		tbl = s.Figure8b()
	}
	b.StopTimer()
	logTable(b, tbl)
	r := s.Runs["hot-sites"].Dynamic
	if len(r.HostLoad) > 0 {
		b.ReportMetric(100*float64(r.SandwichViolations)/float64(len(r.HostLoad)), "sandwich-violation-%")
	}
}

// BenchmarkTable2 regenerates adjustment times and replica counts.
func BenchmarkTable2(b *testing.B) {
	s := suite(b, false)
	b.ResetTimer()
	var tbl *report.Table
	for i := 0; i < b.N; i++ {
		tbl = s.Table2()
	}
	b.StopTimer()
	logTable(b, tbl)
	for _, name := range experiments.WorkloadNames {
		b.ReportMetric(s.Runs[name].Dynamic.AvgReplicas, "replicas-"+shortName(name))
	}
}

// BenchmarkFigure9 regenerates the high-load (hw=50/lw=40) comparison.
func BenchmarkFigure9(b *testing.B) {
	s := suite(b, true)
	b.ResetTimer()
	var tbl *report.Table
	for i := 0; i < b.N; i++ {
		tbl = s.Figure6() // same artifact shape at high-load watermarks
	}
	b.StopTimer()
	logTable(b, tbl)
	low := suite(b, false)
	// Figure 9 claim: performance gains diminish under high load.
	for _, name := range []string{"regional", "zipf"} {
		delta := low.Runs[name].BandwidthReduction() - s.Runs[name].BandwidthReduction()
		b.ReportMetric(delta, "reduction-loss%"+shortName(name))
	}
}

// Ablation benches: each executes its sweep once (cached across
// iterations) and reports the rendered table.

func ablationBench(b *testing.B, once *sync.Once, cache **report.Table, errp *error,
	run func(experiments.Options) (*report.Table, error)) {
	b.Helper()
	once.Do(func() { *cache, *errp = run(benchOpts) })
	if *errp != nil {
		b.Fatal(*errp)
	}
	b.ResetTimer()
	var out strings.Builder
	for i := 0; i < b.N; i++ {
		out.Reset()
		if err := (*cache).Render(&out); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.Log("\n" + out.String())
}

var (
	a1Once, a2Once, a3Once, a4Once, a5Once, a6Once, a7Once, a8Once sync.Once
	a1Tbl, a2Tbl, a3Tbl, a4Tbl, a5Tbl, a6Tbl, a7Tbl, a8Tbl         *report.Table
	a1Err, a2Err, a3Err, a4Err, a5Err, a6Err, a7Err, a8Err         error
)

// BenchmarkAblationDistribution compares the Fig. 2 distributor against
// round-robin and closest-replica (§3).
func BenchmarkAblationDistribution(b *testing.B) {
	ablationBench(b, &a1Once, &a1Tbl, &a1Err, experiments.AblationDistribution)
}

// BenchmarkAblationFullReplication demonstrates that needless replicas
// are harmful (§4).
func BenchmarkAblationFullReplication(b *testing.B) {
	ablationBench(b, &a2Once, &a2Tbl, &a2Err, experiments.AblationFullReplication)
}

// BenchmarkAblationConstant sweeps the distribution constant (§6.1).
func BenchmarkAblationConstant(b *testing.B) {
	ablationBench(b, &a3Once, &a3Tbl, &a3Err, experiments.AblationConstant)
}

// BenchmarkAblationThresholds sweeps u and m/u (§6.1).
func BenchmarkAblationThresholds(b *testing.B) {
	ablationBench(b, &a4Once, &a4Tbl, &a4Err, experiments.AblationThresholds)
}

// BenchmarkAblationBulkOffload compares en-masse offloading against
// one-object-per-round (§1.2).
func BenchmarkAblationBulkOffload(b *testing.B) {
	ablationBench(b, &a5Once, &a5Tbl, &a5Err, experiments.AblationBulkOffload)
}

// BenchmarkAblationNeighborOnly compares the protocol against the
// ADR/WebWave-style neighbor-only baseline (§1.1).
func BenchmarkAblationNeighborOnly(b *testing.B) {
	ablationBench(b, &a6Once, &a6Tbl, &a6Err, experiments.AblationNeighborOnly)
}

// BenchmarkAblationOracle compares the protocol against the offline
// greedy oracle placement (§1.1 future work).
func BenchmarkAblationOracle(b *testing.B) {
	ablationBench(b, &a7Once, &a7Tbl, &a7Err, experiments.AblationOracle)
}

// BenchmarkAblationRedirectors sweeps the redirector count (§6.1 future
// work).
func BenchmarkAblationRedirectors(b *testing.B) {
	ablationBench(b, &a8Once, &a8Tbl, &a8Err, experiments.AblationRedirectors)
}

// BenchmarkEndToEndQuickRun measures a complete scaled-down simulation
// (build, run, collect) per iteration — the library's end-to-end cost.
func BenchmarkEndToEndQuickRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := radar.DefaultConfig(radar.Zipf)
		cfg.Objects = 500
		cfg.Duration = 2 * time.Minute
		cfg.Seed = int64(i + 1)
		res, err := radar.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Summary.TotalServed == 0 {
			b.Fatal("no requests served")
		}
	}
}

// benchRunSeeds measures a four-seed batch through the experiments
// engine at the given parallelism. Per-seed results are bit-identical at
// every parallelism level, so on a multi-core machine the parallel
// variant shows the engine's wall-clock win directly against the
// sequential one.
func benchRunSeeds(b *testing.B, parallelism int) {
	b.Helper()
	cfg := radar.DefaultConfig(radar.Zipf)
	cfg.Objects = 500
	cfg.Duration = 2 * time.Minute
	seeds := []int64{1, 2, 3, 4}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		results, err := radar.RunSeeds(cfg, seeds, parallelism)
		if err != nil {
			b.Fatal(err)
		}
		for _, res := range results {
			if res.Summary.TotalServed == 0 {
				b.Fatal("no requests served")
			}
		}
	}
}

// BenchmarkEngineMultiSeedSequential is the engine pinned to one worker.
func BenchmarkEngineMultiSeedSequential(b *testing.B) { benchRunSeeds(b, 1) }

// BenchmarkEngineMultiSeedParallel fans the batch out across GOMAXPROCS
// workers.
func BenchmarkEngineMultiSeedParallel(b *testing.B) { benchRunSeeds(b, 0) }

func shortName(workload string) string {
	switch workload {
	case "hot-sites":
		return "HS"
	case "hot-pages":
		return "HP"
	case "zipf":
		return "Z"
	case "regional":
		return "R"
	default:
		return strconv.Itoa(len(workload))
	}
}
