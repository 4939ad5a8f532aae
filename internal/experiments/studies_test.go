package experiments

import (
	"bytes"
	"testing"
	"time"

	"radar/internal/report"
)

// TestStudyTables pins every one-parameter study (A1-A8, the fault sweep
// and the control-plane sweep) byte for byte at a scale that runs in
// seconds. The tables are rendered in presentation order into one golden
// file, so a change to how a study builds its points, labels its rows or
// formats a cell shows up as a diff.
func TestStudyTables(t *testing.T) {
	if testing.Short() {
		t.Skip("integration runs")
	}
	opts := Options{Seed: 1, over: &scaleOverride{Objects: 300, Dynamic: 5 * time.Minute, Static: 2 * time.Minute}}
	tables, err := RunAblations(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range []func(Options) (*report.Table, error){RunFaultScenario, RunCtrlScenario} {
		tbl, err := run(opts)
		if err != nil {
			t.Fatal(err)
		}
		tables = append(tables, tbl)
	}
	var buf bytes.Buffer
	for _, tbl := range tables {
		if err := tbl.Render(&buf); err != nil {
			t.Fatal(err)
		}
		buf.WriteByte('\n')
	}
	checkGolden(t, "studies.txt", buf.Bytes())
}
