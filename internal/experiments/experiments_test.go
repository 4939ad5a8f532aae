package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"radar/internal/topology"
)

func TestGeneratorsCoverPaperWorkloads(t *testing.T) {
	opts := Options{Seed: 1, Quick: true}
	gens, err := Generators(opts.universe(), topology.UUNET(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range WorkloadNames {
		g, ok := gens[name]
		if !ok {
			t.Fatalf("missing generator %q", name)
		}
		if g.Name() != name {
			t.Errorf("generator %q reports name %q", name, g.Name())
		}
	}
}

func TestTrackedHotSiteIsHot(t *testing.T) {
	opts := Options{Seed: 1, Quick: true}
	u := opts.universe()
	topo := topology.UUNET()
	n := trackedHotSite(u, topo, 1)
	if int(n) < 0 || int(n) >= topo.NumNodes() {
		t.Fatalf("tracked host %d out of range", n)
	}
}

func TestOptionsScaling(t *testing.T) {
	quick := Options{Quick: true}
	full := Options{}
	if quick.universe().Count >= full.universe().Count {
		t.Error("quick universe not smaller")
	}
	if quick.dynamicDuration("zipf") >= full.dynamicDuration("zipf") {
		t.Error("quick duration not shorter")
	}
	if full.dynamicDuration("hot-sites") <= full.dynamicDuration("zipf") {
		t.Error("hot-sites must run longer (backlog drain)")
	}
}

// TestRunSuiteQuick executes the full paper suite at reduced scale and
// checks the qualitative claims of §6.2 hold end to end.
func TestRunSuiteQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick suite takes ~1 minute")
	}
	opts := Options{Seed: 3, Quick: true, over: raceOver()}
	suite, err := RunSuite(opts, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range WorkloadNames {
		r := suite.Runs[name]
		if r == nil {
			t.Fatalf("missing run %q", name)
		}
		if opts.over != nil {
			continue // race runs cover concurrency, not settled physics
		}
		if red := r.BandwidthReduction(); red < 20 {
			t.Errorf("%s: bandwidth reduction %.1f%%, want >= 20%% (paper: 60-90%%)", name, red)
		}
		// Hot-sites starts saturated; at quick scale its backlog is still
		// draining at the end of the run, so judge it by collapse from
		// its own initial level rather than against the static baseline.
		if name == "hot-sites" {
			ls := r.Dynamic.LatencyStats
			if ls.Equilibrium > ls.Initial/2 {
				t.Errorf("hot-sites: latency eq %.3g not far below initial %.3g", ls.Equilibrium, ls.Initial)
			}
		} else if red := r.LatencyReduction(); red <= 0 {
			t.Errorf("%s: latency did not improve (%.1f%%)", name, red)
		}
		if r.Dynamic.OverheadPercent > 2.5 {
			t.Errorf("%s: overhead %.2f%% above the paper's 2.5%% ceiling", name, r.Dynamic.OverheadPercent)
		}
		if r.Dynamic.AvgReplicas < 1.05 || r.Dynamic.AvgReplicas > 8 {
			t.Errorf("%s: avg replicas %.2f outside plausible range", name, r.Dynamic.AvgReplicas)
		}
	}
	if opts.over == nil {
		// Regional must be the biggest bandwidth winner (locality).
		regional := suite.Runs["regional"].BandwidthReduction()
		for _, name := range []string{"zipf", "hot-pages"} {
			if suite.Runs[name].BandwidthReduction() >= regional {
				t.Errorf("regional reduction %.1f%% should exceed %s's %.1f%%",
					regional, name, suite.Runs[name].BandwidthReduction())
			}
		}
		// Hot-sites and hot-pages share an access pattern, so their dynamic
		// equilibria converge to the same level (paper §6.2). Quick-scale
		// runs end before both fully settle; require same order of magnitude
		// here and verify the tight match in the full-scale experiments.
		hs := suite.Runs["hot-sites"].Dynamic.BandwidthStats.Equilibrium
		hp := suite.Runs["hot-pages"].Dynamic.BandwidthStats.Equilibrium
		if ratio := hs / hp; ratio < 0.3 || ratio > 3 {
			t.Errorf("hot-sites eq %.3g vs hot-pages eq %.3g: want same order", hs, hp)
		}
	}

	var b strings.Builder
	if err := suite.RenderAll(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Figure 6", "Figure 7", "Figure 8a", "Figure 8b", "Table 2", "regional", "hot-sites"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered artifacts missing %q", want)
		}
	}

	dir := t.TempDir()
	if err := suite.WriteCSVs(dir); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"fig6_bandwidth.csv", "fig6_latency.csv", "fig7_overhead.csv", "fig8a_maxload.csv", "fig8b_hostload.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			t.Errorf("missing CSV %s: %v", f, err)
			continue
		}
		minBytes := 100
		if opts.over != nil {
			minBytes = 20 // tiny race-mode runs produce only a few buckets
		}
		if len(data) < minBytes {
			t.Errorf("CSV %s suspiciously small (%d bytes)", f, len(data))
		}
	}
}

func TestAblationFullReplicationQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	// Table shape only, so the tiny scale: TestStudyTables pins the cells
	// and BenchmarkAblationFullReplication runs the quick scale.
	tbl, err := AblationFullReplication(tinyOptions(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 (zipf and regional, full and dynamic)", len(tbl.Rows))
	}
	var b strings.Builder
	if err := tbl.Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "replicate everywhere") {
		t.Errorf("table missing baseline row:\n%s", b.String())
	}
}

func TestMultiSeedAggregation(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed integration run")
	}
	// Two seeds at tiny scale: verify aggregation plumbing, not physics.
	base := Options{Quick: true, over: &scaleOverride{Objects: 300, Dynamic: 2 * time.Minute, Static: time.Minute}}
	ms, err := RunMultiSeed(base, []int64{1, 2}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms.Suites) != 2 {
		t.Fatalf("suites = %d, want 2", len(ms.Suites))
	}
	tbl := ms.Table()
	if len(tbl.Rows) != len(WorkloadNames) {
		t.Fatalf("rows = %d, want %d", len(tbl.Rows), len(WorkloadNames))
	}
	var b strings.Builder
	if err := tbl.Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "±") {
		t.Errorf("aggregated table missing ± intervals:\n%s", b.String())
	}
}

func TestRunMultiSeedValidation(t *testing.T) {
	if _, err := RunMultiSeed(Options{Quick: true}, nil, false); err == nil {
		t.Fatal("empty seed list accepted")
	}
}

func TestAblationOracleQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	// Table shape only, so the tiny scale: TestStudyTables pins the cells
	// and BenchmarkAblationOracle runs the quick scale.
	tbl, err := AblationOracle(tinyOptions(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tbl.Rows))
	}
	// The oracle sees the true demand; it must not lose on bandwidth by
	// a wide margin (allow slack for protocol runs that out-replicate the
	// oracle budget mid-run at quick scale).
	var b strings.Builder
	if err := tbl.Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "oracle") {
		t.Errorf("missing oracle rows:\n%s", b.String())
	}
}
