package experiments

import (
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
