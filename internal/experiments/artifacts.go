package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"radar/internal/metrics"
	"radar/internal/report"
)

// Figure6 summarizes bandwidth and latency per workload (the headline
// numbers of the paper's Figure 6 curves).
func (s *Suite) Figure6() *report.Table {
	title := "Figure 6: bandwidth and average latency, dynamic replication vs static placement"
	if s.HighLoad {
		title = "Figure 9: bandwidth and average latency under high load (hw=50, lw=40)"
	}
	t := &report.Table{
		Title: title,
		Headers: []string{"workload", "static bw (B·hops/s)", "dynamic bw (B·hops/s)", "bw reduction %",
			"static lat (s)", "dynamic lat (s)", "lat reduction %"},
	}
	for _, name := range WorkloadNames {
		r := s.Runs[name]
		t.AddRow(name,
			report.F(r.Static.BandwidthStats.Equilibrium, 0),
			report.F(r.Dynamic.BandwidthStats.Equilibrium, 0),
			report.F(r.BandwidthReduction(), 1),
			report.F(r.Static.LatencyStats.Equilibrium, 3),
			report.F(r.Dynamic.LatencyStats.Equilibrium, 3),
			report.F(r.LatencyReduction(), 1),
		)
	}
	return t
}

// Figure7 summarizes protocol overhead as a percentage of total traffic.
func (s *Suite) Figure7() *report.Table {
	t := &report.Table{
		Title:   "Figure 7: network overhead (replication/migration traffic, % of total)",
		Headers: []string{"workload", "overhead %", "peak bucket %"},
	}
	for _, name := range WorkloadNames {
		r := s.Runs[name]
		t.AddRow(name,
			report.F(r.Dynamic.OverheadPercent, 2),
			report.F(metrics.MaxValue(r.Dynamic.OverheadPct), 2),
		)
	}
	return t
}

// Figure8a summarizes the maximum-load series.
func (s *Suite) Figure8a() *report.Table {
	t := &report.Table{
		Title:   "Figure 8a: maximum server load (req/s)",
		Headers: []string{"workload", "peak", "settled (final quarter)", "high watermark"},
	}
	for _, name := range WorkloadNames {
		r := s.Runs[name]
		t.AddRow(name,
			report.F(r.Dynamic.MaxLoadPeak, 1),
			report.F(r.Dynamic.MaxLoadSettled, 1),
			report.F(r.Dynamic.HighWatermark, 0),
		)
	}
	return t
}

// Figure8b summarizes the tracked host's estimate sandwich for the
// hot-sites run (the paper plots one host's actual load between its lower
// and upper estimates).
func (s *Suite) Figure8b() *report.Table {
	r := s.Runs["hot-sites"].Dynamic
	t := &report.Table{
		Title:   fmt.Sprintf("Figure 8b: load estimates vs actual (host %d, hot-sites)", r.TrackedHost),
		Headers: []string{"samples", "violations", "violation %"},
	}
	n := len(r.HostLoad)
	pct := 0.0
	if n > 0 {
		pct = 100 * float64(r.SandwichViolations) / float64(n)
	}
	t.AddRow(fmt.Sprint(n), fmt.Sprint(r.SandwichViolations), report.F(pct, 1))
	return t
}

// Table2 reproduces adjustment time and average replica count.
func (s *Suite) Table2() *report.Table {
	t := &report.Table{
		Title:   "Table 2: adjustment time and average number of replicas",
		Headers: []string{"workload", "adjustment time (min)", "average number of replicas"},
	}
	for _, name := range WorkloadNames {
		r := s.Runs[name].Dynamic
		adj := "not settled"
		if r.Adjusted {
			adj = report.Mins(r.AdjustmentTime)
		}
		t.AddRow(name, adj, report.F(r.AvgReplicas, 2))
	}
	return t
}

// Timing reports each run's wall-clock cost as measured by the parallel
// engine. Unlike the other artifacts this table is not deterministic
// (wall times vary run to run), so RenderAll excludes it; callers that
// want it render it explicitly.
func (s *Suite) Timing() *report.Table {
	t := &report.Table{
		Title:   "Run wall-clock (parallel engine)",
		Headers: []string{"run", "wall"},
	}
	var total time.Duration
	for _, rt := range s.Timings {
		t.AddRow(rt.Label, rt.Wall.Round(time.Millisecond).String())
		total += rt.Wall
	}
	// Concurrent runs include time spent waiting for each other's CPU
	// timeslices, so this sum exceeds both the batch wall-clock and the
	// true CPU time whenever parallelism > 1.
	t.AddRow("sum of runs", total.Round(time.Millisecond).String())
	return t
}

// RenderAll writes every artifact of the suite to w.
func (s *Suite) RenderAll(w io.Writer) error {
	tables := []*report.Table{s.Figure6(), s.Figure7(), s.Figure8a(), s.Figure8b(), s.Table2()}
	if s.HighLoad {
		tables = []*report.Table{s.Figure6()}
	}
	for _, t := range tables {
		if err := t.Render(w); err != nil {
			return err
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSVs dumps the per-figure series data to dir: one file per figure,
// with a column per workload.
func (s *Suite) WriteCSVs(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	prefix := "fig6"
	if s.HighLoad {
		prefix = "fig9"
	}
	collect := func(pick func(*WorkloadRun) []metrics.Point) map[string][]metrics.Point {
		out := make(map[string][]metrics.Point, len(WorkloadNames))
		for _, name := range WorkloadNames {
			out[name] = pick(s.Runs[name])
		}
		return out
	}
	files := []struct {
		name   string
		series map[string][]metrics.Point
	}{
		{prefix + "_bandwidth.csv", collect(func(r *WorkloadRun) []metrics.Point { return r.Dynamic.Bandwidth })},
		{prefix + "_latency.csv", collect(func(r *WorkloadRun) []metrics.Point { return r.Dynamic.Latency })},
		{"fig7_overhead.csv", collect(func(r *WorkloadRun) []metrics.Point { return r.Dynamic.OverheadPct })},
		{"fig8a_maxload.csv", collect(func(r *WorkloadRun) []metrics.Point { return r.Dynamic.MaxLoad })},
	}
	if s.HighLoad {
		files = files[:2]
	}
	for _, f := range files {
		err := report.WriteFile(filepath.Join(dir, f.name), func(w io.Writer) error {
			return report.WriteSeriesCSV(w, time.Minute, f.series, WorkloadNames)
		})
		if err != nil {
			return err
		}
	}
	if s.HighLoad {
		return nil
	}
	return report.WriteFile(filepath.Join(dir, "fig8b_hostload.csv"), func(w io.Writer) error {
		return report.WriteHostLoadCSV(w, s.Runs["hot-sites"].Dynamic.HostLoad)
	})
}
