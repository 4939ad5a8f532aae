package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricValue is one metric as the result line carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the JSON object a single run prints last on standard
// output: exactly the four keys of the PR driver's contract.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runDetail is the JSON object every run prints on the line before the
// result line, for the ledger: the request metrics, the sample count behind
// each metric, the failed checks and the results hash.
type runDetail struct {
	Extra    map[string]metricValue `json:"extra"`
	Samples  map[string]int         `json:"samples"`
	Problems []string               `json:"problems,omitempty"`
	Hash     string                 `json:"hash,omitempty"`
}

// report collects one run's measurements and failed checks.
type report struct {
	attempted int64
	failed    int64
	values    map[string]float64
	samples   map[string]int
	problems  []string
	hash      string
}

func newReport() *report {
	return &report{values: make(map[string]float64), samples: make(map[string]int)}
}

// set records a metric with the number of samples behind it.
func (r *report) set(name string, v float64, n int) {
	r.values[name] = v
	r.samples[name] = n
}

// problem records a failed output check; any problem makes the run incorrect.
func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// lines assembles the result line and the detail line before it: every
// metric of defs, which a run of the given kind must have measured
// (end-to-end) or may leave at zero (per-layer metrics of layers the
// workload does not enter).
func (r *report) lines(defs []metricDef, required bool) (resultLine, runDetail) {
	out := resultLine{
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	listed := make(map[string]bool, len(defs))
	for _, d := range defs {
		listed[d.Name] = true
		v, ok := r.values[d.Name]
		switch {
		case !ok && required:
			r.problem("metric %s was not measured", d.Name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			r.problem("metric %s is not a finite number", d.Name)
			v = 0
		case required && v == 0:
			r.problem("metric %s measured zero", d.Name)
		}
		out.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	detail := runDetail{Extra: make(map[string]metricValue), Samples: r.samples, Hash: r.hash}
	for _, group := range [][]metricDef{requestMetrics, rawMetrics} {
		for _, d := range group {
			if v, ok := r.values[d.Name]; ok && !listed[d.Name] {
				detail.Extra[d.Name] = metricValue{Value: v, Unit: d.Unit}
			}
		}
	}
	if out.Attempted < 1 {
		r.problem("no operation was attempted")
		out.Attempted = 1
	}
	out.Correct = len(r.problems) == 0
	detail.Problems = r.problems
	return out, detail
}

// printHuman lists every measured metric by name with its unit and sample
// count, then the failed checks.
func (r *report) printHuman(w io.Writer, title string) {
	fmt.Fprintf(w, "%s\n", title)
	defs := make(map[string]metricDef)
	for _, group := range [][]metricDef{endToEnd, requestMetrics, rawMetrics, perLayer} {
		for _, d := range group {
			defs[d.Name] = d
		}
	}
	names := make([]string, 0, len(r.values))
	for name := range r.values {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  %-34s %16.6g %-6s n=%d\n", name, r.values[name], defs[name].Unit, r.samples[name])
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", p)
	}
}

// writeLines ends a run's output: the detail line, then the result line.
func writeLines(w io.Writer, line resultLine, detail runDetail) error {
	for _, v := range []any{detail, line} {
		data, err := json.Marshal(v)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s\n", data); err != nil {
			return err
		}
	}
	return nil
}

// readLines parses the last two lines of a run's output.
func readLines(out []byte) (line resultLine, detail runDetail, err error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if len(lines) < 2 {
		return line, detail, fmt.Errorf("no result line")
	}
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		return line, detail, fmt.Errorf("result line: %w", err)
	}
	if err := json.Unmarshal(lines[len(lines)-2], &detail); err != nil {
		return line, detail, fmt.Errorf("detail line: %w", err)
	}
	return line, detail, nil
}
