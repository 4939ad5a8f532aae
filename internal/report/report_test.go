package report

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"radar/internal/metrics"
	"radar/internal/sim"
)

func TestTableRender(t *testing.T) {
	tbl := &Table{Title: "demo", Headers: []string{"a", "metric"}}
	tbl.AddRow("x", "1")
	tbl.AddRow("longer", "2.5")
	var b strings.Builder
	if err := tbl.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("rendered %d lines, want 5:\n%s", len(lines), out)
	}
	if lines[0] != "demo" {
		t.Errorf("title line = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "a     ") {
		t.Errorf("header not width-aligned: %q", lines[1])
	}
	if !strings.Contains(lines[2], "---") {
		t.Errorf("separator missing: %q", lines[2])
	}
}

func TestF(t *testing.T) {
	tests := []struct {
		v    float64
		prec int
		want string
	}{
		{1.5, 3, "1.5"},
		{2, 3, "2"},
		{0.123456, 3, "0.123"},
		{100, 0, "100"},
	}
	for _, tc := range tests {
		if got := F(tc.v, tc.prec); got != tc.want {
			t.Errorf("F(%v,%d) = %q, want %q", tc.v, tc.prec, got, tc.want)
		}
	}
}

func TestMins(t *testing.T) {
	if got := Mins(22*time.Minute + 29*time.Second); got != "22" {
		t.Errorf("Mins = %q, want 22", got)
	}
	if got := Mins(22*time.Minute + 31*time.Second); got != "23" {
		t.Errorf("Mins = %q, want 23", got)
	}
}

func TestWriteSeriesCSV(t *testing.T) {
	series := map[string][]metrics.Point{
		"bw":  {{T: 0, V: 10}, {T: time.Minute, V: 20}},
		"lat": {{T: 0, V: 0.5}},
	}
	var b strings.Builder
	if err := WriteSeriesCSV(&b, time.Minute, series, []string{"bw", "lat"}); err != nil {
		t.Fatal(err)
	}
	want := "time,bw,lat\n0,10,0.5\n1,20,\n"
	if b.String() != want {
		t.Fatalf("csv = %q, want %q", b.String(), want)
	}
	if err := WriteSeriesCSV(&b, time.Minute, nil, nil); err == nil {
		t.Fatal("empty series accepted")
	}
}

func TestWriteHostLoadCSV(t *testing.T) {
	samples := []metrics.HostLoadSample{
		{T: 20 * time.Second, Actual: 40, Lower: 35.5, Upper: 50},
	}
	var b strings.Builder
	if err := WriteHostLoadCSV(&b, samples); err != nil {
		t.Fatal(err)
	}
	want := "time_s,actual,lower,upper\n20,40,35.5,50\n"
	if b.String() != want {
		t.Fatalf("csv = %q, want %q", b.String(), want)
	}
}

// TestWriteFile: the file holds what fill wrote, and fill's error and a
// missing directory both come back to the caller.
func TestWriteFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.csv")
	if err := WriteFile(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "a,b\n")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "a,b\n" {
		t.Fatalf("file = %q, %v; want %q", got, err, "a,b\n")
	}
	boom := errors.New("boom")
	if err := WriteFile(path, func(io.Writer) error { return boom }); !errors.Is(err, boom) {
		t.Errorf("fill error = %v, want %v", err, boom)
	}
	if err := WriteFile(filepath.Join(path, "no", "dir"), func(io.Writer) error { return nil }); err == nil {
		t.Error("a path under a file was created")
	}
}

func TestSummaryIncludesKeyMetrics(t *testing.T) {
	res := &sim.Results{
		WorkloadName: "zipf",
		Dynamic:      true,
		Duration:     time.Hour,
		AvgReplicas:  1.86,
		Adjusted:     true,
	}
	res.BandwidthStats.Initial = 100
	res.BandwidthStats.Equilibrium = 40
	res.BandwidthStats.ReductionPercent = 60
	res.AdjustmentTime = 23 * time.Minute
	tbl := Summary(res)
	var b strings.Builder
	if err := tbl.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"zipf", "60", "1.86", "23"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}
