package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of one workload x metric comparison.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved" // run-to-run spread wider than the bound
)

// absoluteBounds widen a relative bound where the metric sits near zero:
// the metric may worsen by the relative bound or by this much, whichever is
// larger.
var absoluteBounds = map[string]float64{
	"setup_s":         0.020,
	"live.miss_share": 0.02,
	"live.fail_share": 0.001,
}

// judge compares a metric's new median with its old one. A change inside
// the bound either way is "same"; when either side's own spread is wider
// than the bound the comparison cannot tell and is "unresolved".
func judge(d metricDef, old, cur ledgerMetric) (verdict string, change float64) {
	allowed := math.Max(d.Bound*math.Abs(old.Median), absoluteBounds[d.Name])
	worsening := cur.Median - old.Median
	if d.Better == "higher" {
		worsening = -worsening
	}
	if old.Median != 0 {
		change = (cur.Median - old.Median) / math.Abs(old.Median)
	}
	spread := math.Max(old.Spread*math.Abs(old.Median), cur.Spread*math.Abs(cur.Median))
	switch {
	case spread > allowed:
		return verdictUnresolved, change
	case worsening > allowed:
		return verdictWorse, change
	case -worsening > allowed:
		return verdictBetter, change
	}
	return verdictSame, change
}

func readLedger(path string) (ledger, error) {
	var led ledger
	data, err := os.ReadFile(path)
	if err != nil {
		return led, err
	}
	if err := json.Unmarshal(data, &led); err != nil {
		return led, fmt.Errorf("%s: %w", path, err)
	}
	return led, nil
}

// compareFiles prints one row per workload x end-to-end metric of two
// ledgers and reports whether any is worse or more operations failed.
func compareFiles(w io.Writer, oldPath, newPath string) (anyWorse bool, err error) {
	old, err := readLedger(oldPath)
	if err != nil {
		return false, err
	}
	cur, err := readLedger(newPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "old: %s %s\nnew: %s %s\n", oldPath, old.Stamp, newPath, cur.Stamp)
	return compareLedgers(w, old, cur), nil
}

func compareLedgers(w io.Writer, old, cur ledger) (anyWorse bool) {
	olds := make(map[string]ledgerWorkload, len(old.Workloads))
	for _, wl := range old.Workloads {
		olds[wl.Name] = wl
	}
	fmt.Fprintf(w, "%-20s %-20s %14s %14s %9s %7s  %s\n", "workload", "metric", "old median", "new median", "change", "bound", "verdict")
	for _, wl := range cur.Workloads {
		was, ok := olds[wl.Name]
		if !ok {
			fmt.Fprintf(w, "%-20s (not in the old ledger)\n", wl.Name)
			continue
		}
		for _, group := range [][]metricDef{endToEnd, requestMetrics} {
			for _, d := range group {
				o, haveOld := was.EndToEnd[d.Name]
				n, haveNew := wl.EndToEnd[d.Name]
				if !haveOld || !haveNew {
					continue
				}
				verdict, change := judge(d, o, n)
				anyWorse = anyWorse || verdict == verdictWorse
				fmt.Fprintf(w, "%-20s %-20s %14.6g %14.6g %+8.1f%% %6.0f%%  %s\n", wl.Name, d.Name, o.Median, n.Median, 100*change, 100*d.Bound, verdict)
			}
		}
		if was.Failed < wl.Failed {
			anyWorse = true
			fmt.Fprintf(w, "%-20s failed operations rose from %d to %d  %s\n", wl.Name, was.Failed, wl.Failed, verdictWorse)
		}
	}
	return anyWorse
}
