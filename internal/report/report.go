// Package report renders simulation results as the paper presents them:
// fixed-width ASCII tables for Tables 1-2 style summaries and CSV series
// for the data behind Figures 6-9.
package report

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"radar/internal/metrics"
	"radar/internal/sim"
)

// Table is a simple fixed-width text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(widths) {
				b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// F formats a float with the given precision, trimming trailing zeros.
func F(v float64, prec int) string {
	s := strconv.FormatFloat(v, 'f', prec, 64)
	if strings.Contains(s, ".") {
		s = strings.TrimRight(s, "0")
		s = strings.TrimRight(s, ".")
	}
	return s
}

// Mins formats a duration in whole minutes like the paper's Table 2.
func Mins(d time.Duration) string {
	return strconv.Itoa(int(d.Round(time.Minute) / time.Minute))
}

// WriteSeriesCSV writes one or more named series sharing a time axis. All
// series must be sampled on the same bucket grid; shorter series pad with
// empty cells.
func WriteSeriesCSV(w io.Writer, timeUnit time.Duration, series map[string][]metrics.Point, order []string) error {
	if len(order) == 0 {
		return fmt.Errorf("report: no series to write")
	}
	maxLen := 0
	for _, name := range order {
		if len(series[name]) > maxLen {
			maxLen = len(series[name])
		}
	}
	var b strings.Builder
	b.WriteString("time")
	for _, name := range order {
		b.WriteByte(',')
		b.WriteString(name)
	}
	b.WriteByte('\n')
	for i := 0; i < maxLen; i++ {
		var ts time.Duration
		for _, name := range order {
			if i < len(series[name]) {
				ts = series[name][i].T
				break
			}
		}
		b.WriteString(F(float64(ts)/float64(timeUnit), 3))
		for _, name := range order {
			b.WriteByte(',')
			if i < len(series[name]) {
				b.WriteString(F(series[name][i].V, 6))
			}
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteFile creates the file at path, lets fill write it and closes it,
// reporting the first error of the three.
func WriteFile(path string, fill func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := fill(f); err != nil {
		return err
	}
	return f.Close()
}

// WriteHostLoadCSV writes the Figure 8b trace.
func WriteHostLoadCSV(w io.Writer, samples []metrics.HostLoadSample) error {
	var b strings.Builder
	b.WriteString("time_s,actual,lower,upper\n")
	for _, s := range samples {
		fmt.Fprintf(&b, "%s,%s,%s,%s\n",
			F(s.T.Seconds(), 1), F(s.Actual, 4), F(s.Lower, 4), F(s.Upper, 4))
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Summary renders a one-run summary table.
func Summary(res *sim.Results) *Table {
	t := &Table{
		Title:   fmt.Sprintf("run: workload=%s policy=%s dynamic=%v duration=%v seed=%d", res.WorkloadName, res.Policy, res.Dynamic, res.Duration, res.Seed),
		Headers: []string{"metric", "value"},
	}
	t.AddRow("bandwidth initial (byte-hops/s)", F(res.BandwidthStats.Initial, 0))
	t.AddRow("bandwidth equilibrium (byte-hops/s)", F(res.BandwidthStats.Equilibrium, 0))
	t.AddRow("bandwidth reduction (%)", F(res.BandwidthStats.ReductionPercent, 1))
	t.AddRow("latency initial (s)", F(res.LatencyStats.Initial, 3))
	t.AddRow("latency equilibrium (s)", F(res.LatencyStats.Equilibrium, 3))
	t.AddRow("latency reduction (%)", F(res.LatencyStats.ReductionPercent, 1))
	if res.Adjusted {
		t.AddRow("adjustment time (min)", Mins(res.AdjustmentTime))
	} else {
		t.AddRow("adjustment time (min)", "not settled")
	}
	t.AddRow("average replicas per object", F(res.AvgReplicas, 2))
	t.AddRow("overhead traffic (%)", F(res.OverheadPercent, 2))
	t.AddRow("max load peak (req/s)", F(res.MaxLoadPeak, 1))
	t.AddRow("max load settled (req/s)", F(res.MaxLoadSettled, 1))
	t.AddRow("high watermark (req/s)", F(res.HighWatermark, 0))
	t.AddRow("estimate sandwich violations", strconv.Itoa(res.SandwichViolations))
	t.AddRow("requests served", strconv.FormatInt(res.TotalServed, 10))
	t.AddRow("requests timed out", strconv.FormatInt(res.TimedOutRequests, 10))
	c := res.Counters
	t.AddRow("geo migrations / replications", fmt.Sprintf("%d / %d", c.GeoMigrations, c.GeoReplications))
	t.AddRow("load migrations / replications", fmt.Sprintf("%d / %d", c.LoadMigrations, c.LoadReplications))
	t.AddRow("drops / refusals", fmt.Sprintf("%d / %d", c.Drops, c.Refusals))
	// Availability section, only with fault injection configured: renders
	// of fault-free runs stay byte-identical to earlier builds (golden
	// files pin this).
	if res.FaultsEnabled {
		t.AddRow("host failures / recoveries", fmt.Sprintf("%d / %d", res.Failures, res.Recoveries))
		t.AddRow("link failures / recoveries", fmt.Sprintf("%d / %d", res.LinkFailures, res.LinkRecoveries))
		t.AddRow("requests failed (faults)", strconv.FormatInt(res.FailedRequests, 10))
		t.AddRow("outage windows", strconv.FormatInt(res.Outages, 10))
		t.AddRow("unavailable object-seconds", F(res.UnavailObjSecs, 1))
		t.AddRow("below-floor object-seconds", F(res.BelowFloorObjSecs, 1))
		t.AddRow("repair replications", strconv.FormatInt(c.RepairReplications, 10))
		t.AddRow("repair traffic (byte-hops)", strconv.FormatInt(res.RepairByteHops, 10))
	}
	// Storage section, only with a non-default replica-storage stack:
	// default-stack renders stay byte-identical. One row per stack layer,
	// in pre-order, with that layer's hit/miss and eviction counters.
	if res.StoreEnabled {
		t.AddRow("store stack", res.StoreSpec)
		for i, l := range res.StoreLayers {
			t.AddRow(fmt.Sprintf("store[%d] %s serves (hit/miss)", i, l.Label),
				fmt.Sprintf("%d (%d / %d)", l.Serves, l.Hits, l.Misses))
			t.AddRow(fmt.Sprintf("store[%d] %s evictions", i, l.Label), strconv.FormatInt(l.Evictions, 10))
			t.AddRow(fmt.Sprintf("store[%d] %s replicas / MB / cost (s)", i, l.Label),
				fmt.Sprintf("%d / %s / %s", l.Replicas, F(float64(l.BytesUsed)/(1<<20), 1),
					F(time.Duration(l.CostNanos).Seconds(), 3)))
		}
	}
	// Control-plane section, only when message faults armed the unreliable
	// control plane: reliable-run renders stay byte-identical.
	if res.CtrlEnabled {
		st := res.CtrlStats
		t.AddRow("ctrl RPC attempts / retries", fmt.Sprintf("%d / %d", st.Attempts, st.Retries))
		t.AddRow("ctrl RPC timeouts / lost", fmt.Sprintf("%d / %d", st.Timeouts, st.Lost))
		t.AddRow("ctrl legs dropped / duplicated", fmt.Sprintf("%d / %d", st.DroppedLegs, st.DupLegs))
		t.AddRow("ctrl notifies sent / lost", fmt.Sprintf("%d / %d", st.NotifiesSent, st.NotifiesLost))
		t.AddRow("placement moves deferred", strconv.FormatInt(c.DeferredMoves, 10))
		t.AddRow("orphan replicas healed", strconv.FormatInt(res.OrphansHealed, 10))
		t.AddRow("stale affinities repaired", strconv.FormatInt(res.StaleAffinityRepaired, 10))
		t.AddRow("ghost records removed", strconv.FormatInt(res.GhostsRemoved, 10))
		t.AddRow("reconcile runs", strconv.FormatInt(res.ReconcileRuns, 10))
		t.AddRow("reconcile traffic (byte-hops)", strconv.FormatInt(res.ReconcileByteHops, 10))
	}
	return t
}
