package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"time"
)

// ledgerMetric is one metric of one workload over the repetitions.
type ledgerMetric struct {
	Unit    string    `json:"unit"`
	Median  float64   `json:"median"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	Spread  float64   `json:"spread"`  // quartile distance over the median
	Runs    int       `json:"runs"`    // repetitions behind the median
	Samples int       `json:"samples"` // samples behind one repetition's value
	Values  []float64 `json:"values"`
}

// ledgerWorkload is one workload's record.
type ledgerWorkload struct {
	Name      string                  `json:"name"`
	Why       string                  `json:"why"`
	DSL       string                  `json:"dsl"`
	Hash      string                  `json:"results_hash,omitempty"`
	Correct   bool                    `json:"correct"`
	Problems  []string                `json:"problems,omitempty"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	EndToEnd  map[string]ledgerMetric `json:"end_to_end"`
	PerLayer  map[string]ledgerMetric `json:"per_layer,omitempty"`
}

// ledger is the artifact a whole-benchmark run writes and -compare reads.
type ledger struct {
	Stamp     stamp            `json:"stamp"`
	Command   string           `json:"command"`
	Seconds   float64          `json:"run_seconds"`
	Workloads []ledgerWorkload `json:"workloads"`
}

// childRun runs one workload once in a fresh process of this binary and
// parses the two lines it ends its output with.
func childRun(lo runOpts, w workloadDef, traced bool) (resultLine, runDetail, time.Duration, error) {
	self, err := os.Executable()
	if err != nil {
		return resultLine{}, runDetail{}, 0, err
	}
	args := append(lo.childArgs(w), "-out", lo.OutDir)
	if traced {
		args = append(args, "-trace", "1")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*runLimit)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stderr = os.Stderr
	started := time.Now()
	out, runErr := cmd.Output()
	took := time.Since(started)
	line, detail, err := readLines(out)
	if err != nil {
		return line, detail, took, fmt.Errorf("%s: %v; run ended: %v", w.Name, err, runErr)
	}
	return line, detail, took, nil
}

// fold adds one run's metrics to the per-metric value lists. A metric with
// no sample behind it was not measured — a per-layer metric of a layer the
// workload does not enter — and is left out.
func fold(into map[string]*ledgerMetric, metrics map[string]metricValue, samples map[string]int) {
	for name, mv := range metrics {
		if samples[name] == 0 {
			continue
		}
		m := into[name]
		if m == nil {
			m = &ledgerMetric{Unit: mv.Unit}
			into[name] = m
		}
		m.Values = append(m.Values, mv.Value)
		m.Samples = samples[name]
	}
}

func finish(in map[string]*ledgerMetric) map[string]ledgerMetric {
	out := make(map[string]ledgerMetric, len(in))
	for name, m := range in {
		m.Runs = len(m.Values)
		m.Median = median(m.Values)
		m.Min, m.Max = minMax(m.Values)
		m.Spread = spreadShare(m.Values)
		out[name] = *m
	}
	return out
}

// runLedger runs every workload: reps untraced repetitions for the
// end-to-end metrics (0: three, or five for runs under 5 s), then with
// lo.Trace one traced run for the per-layer ones, each in a fresh process.
// It prints the tables, writes the ledger to lo.OutDir and reports whether
// every output check passed.
func runLedger(lo runOpts, reps int) (bool, error) {
	if err := os.MkdirAll(lo.OutDir, 0o755); err != nil {
		return false, err
	}
	led := ledger{Command: "bash benchmark/run.sh", Seconds: lo.Seconds}
	allCorrect := true
	most := 0
	for _, w := range workloads {
		rec := ledgerWorkload{Name: w.Name, Why: w.Why, DSL: w.dsl(lo.Seed, lo.Quick), Correct: true}
		e2e := make(map[string]*ledgerMetric)
		want := reps
		for i := 0; want == 0 || i < want; i++ {
			line, detail, took, err := childRun(lo, w, false)
			if err != nil {
				return false, err
			}
			if want == 0 {
				// At least three repetitions; five for runs under 5 s.
				want = 3
				if took < 5*time.Second {
					want = 5
				}
			}
			fold(e2e, line.Metrics, detail.Samples)
			fold(e2e, detail.Extra, detail.Samples)
			rec.Attempted += line.Attempted
			rec.Failed += line.Failed
			rec.Hash = detail.Hash
			rec.Correct = rec.Correct && line.Correct
			rec.Problems = append(rec.Problems, detail.Problems...)
			fmt.Fprintf(os.Stderr, "%s rep %d/%d: %.1f s, correct=%v\n", w.Name, i+1, want, took.Seconds(), line.Correct)
		}
		most = max(most, want)
		rec.EndToEnd = finish(e2e)
		if lo.Trace {
			line, detail, took, err := childRun(lo, w, true)
			if err != nil {
				return false, err
			}
			layers := make(map[string]*ledgerMetric)
			fold(layers, line.Metrics, detail.Samples)
			rec.PerLayer = finish(layers)
			rec.Correct = rec.Correct && line.Correct
			rec.Problems = append(rec.Problems, detail.Problems...)
			fmt.Fprintf(os.Stderr, "%s traced: %.1f s, correct=%v\n", w.Name, took.Seconds(), line.Correct)
		}
		allCorrect = allCorrect && rec.Correct
		led.Workloads = append(led.Workloads, rec)
	}
	led.Stamp = stampOf(lo.Seed, most)
	printLedger(led)
	data, err := json.MarshalIndent(led, "", "  ")
	if err != nil {
		return false, err
	}
	path := filepath.Join(lo.OutDir, "ledger.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return false, err
	}
	fmt.Printf("wrote %s\n", path)
	return allCorrect, nil
}

// printLedger prints every metric by name with its unit, repetitions and
// sample count: the end-to-end table per workload, then the per-layer
// metrics the workload's traced run measured.
func printLedger(led ledger) {
	fmt.Printf("benchmark ledger %s\n", led.Stamp)
	for _, w := range led.Workloads {
		fmt.Printf("\n%s   %s\n  %s\n", w.Name, w.DSL, w.Why)
		fmt.Printf("  %-24s %14s %14s %14s %8s %-6s %5s %9s\n", "end to end", "median", "min", "max", "spread", "unit", "runs", "samples")
		for _, group := range [][]metricDef{endToEnd, requestMetrics, rawMetrics} {
			for _, d := range group {
				if m, ok := w.EndToEnd[d.Name]; ok {
					fmt.Printf("  %-24s %14.6g %14.6g %14.6g %7.1f%% %-6s %5d %9d\n", d.Name, m.Median, m.Min, m.Max, 100*m.Spread, m.Unit, m.Runs, m.Samples)
				}
			}
		}
		names := make([]string, 0, len(w.PerLayer))
		for name := range w.PerLayer {
			names = append(names, name)
		}
		sort.Strings(names)
		if len(names) > 0 {
			fmt.Printf("  %-34s %14s %-6s %9s\n", "per layer (traced run)", "value", "unit", "samples")
		}
		for _, name := range names {
			m := w.PerLayer[name]
			fmt.Printf("  %-34s %14.6g %-6s %9d\n", name, m.Median, m.Unit, m.Samples)
		}
		verdict := "all output checks passed"
		if !w.Correct {
			verdict = "OUTPUT CHECKS FAILED"
		}
		fmt.Printf("  %s; attempted %d, failed %d", verdict, w.Attempted, w.Failed)
		if w.Hash != "" {
			fmt.Printf(", results hash %s", w.Hash)
		}
		fmt.Println()
		for _, p := range w.Problems {
			fmt.Printf("  CHECK FAILED: %s\n", p)
		}
	}
}
