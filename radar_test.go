package radar

import (
	"strings"
	"testing"
	"time"

	"radar/internal/sim"
)

// The facade's result types are the simulator's own, so convert hands a
// run's slices through; this stops compiling if one becomes a copy again.
func _(r *sim.Results) ([]Point, []LoadSample, []StoreLayer) {
	return r.Bandwidth, r.HostLoad, r.StoreLayers
}

// quick returns a fast, scaled-down configuration for facade tests.
func quick(w Workload) Config {
	cfg := DefaultConfig(w)
	cfg.Objects = 1000
	cfg.Duration = 4 * time.Minute
	return cfg
}

func TestDefaultConfigMatchesTable1(t *testing.T) {
	cfg := DefaultConfig(Zipf)
	if cfg.Objects != 10000 {
		t.Errorf("Objects = %d, want 10000", cfg.Objects)
	}
	if cfg.Placement.Policy != PolicyPaper {
		t.Errorf("Policy = %q, want paper", cfg.Placement.Policy)
	}
}

func TestRunFacade(t *testing.T) {
	res, err := Run(quick(Uniform))
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.TotalServed == 0 {
		t.Error("no requests served")
	}
	if len(res.Bandwidth) == 0 || len(res.Latency) == 0 || len(res.MaxLoad) == 0 {
		t.Error("missing series")
	}
	if len(res.HostLoad) == 0 {
		t.Error("missing host load trace")
	}
	var b strings.Builder
	if err := res.WriteSummary(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "bandwidth equilibrium") {
		t.Errorf("summary missing fields:\n%s", b.String())
	}
}

func TestRunAllWorkloads(t *testing.T) {
	for _, w := range []Workload{Zipf, HotSites, HotPages, Regional, Uniform} {
		w := w
		t.Run(string(w), func(t *testing.T) {
			t.Parallel()
			res, err := Run(quick(w))
			if err != nil {
				t.Fatal(err)
			}
			if res.Summary.TotalServed == 0 {
				t.Error("no requests served")
			}
		})
	}
}

func TestRunStaticVsDynamic(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	static := quick(Regional)
	static.Static = true
	sres, err := Run(static)
	if err != nil {
		t.Fatal(err)
	}
	dyn := quick(Regional)
	dyn.Duration = 20 * time.Minute
	dres, err := Run(dyn)
	if err != nil {
		t.Fatal(err)
	}
	if dres.Summary.BandwidthEquilibrium >= sres.Summary.BandwidthEquilibrium {
		t.Errorf("dynamic bandwidth %v not below static %v",
			dres.Summary.BandwidthEquilibrium, sres.Summary.BandwidthEquilibrium)
	}
	if sres.Summary.GeoMigrations+sres.Summary.GeoReplications != 0 {
		t.Error("static run relocated objects")
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	bad := quick("no-such-workload")
	if _, err := Run(bad); err == nil {
		t.Error("unknown workload accepted")
	}
	bad = quick(Zipf)
	bad.Placement.Policy = "no-such-policy"
	if _, err := Run(bad); err == nil {
		t.Error("unknown policy accepted")
	}
	bad = quick(Zipf)
	bad.Consistency = "no-such-regime"
	if _, err := Run(bad); err == nil {
		t.Error("unknown consistency regime accepted")
	}
	bad = quick(Zipf)
	bad.Objects = 0
	if _, err := Run(bad); err == nil {
		t.Error("zero objects accepted")
	}
}

func TestConsistencyMixedRuns(t *testing.T) {
	cfg := quick(HotPages)
	cfg.Consistency = ConsistencyMixed
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.TotalServed == 0 {
		t.Error("no requests served")
	}
}

func TestFacadeDeterminism(t *testing.T) {
	a, err := Run(quick(Zipf))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(quick(Zipf))
	if err != nil {
		t.Fatal(err)
	}
	if a.Summary != b.Summary {
		t.Errorf("same seed, different summaries:\n%+v\n%+v", a.Summary, b.Summary)
	}
}

func TestWorkloadSwitchFacade(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	cfg := quick(Zipf)
	cfg.Duration = 12 * time.Minute
	cfg.SwitchTo = Regional
	cfg.SwitchAt = 6 * time.Minute
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.TotalServed == 0 {
		t.Fatal("no requests served")
	}
	// Regional demand after the switch pulls bandwidth below the Zipf-era
	// level.
	var atSwitch float64
	for _, p := range res.Bandwidth {
		if p.T <= cfg.SwitchAt {
			atSwitch = p.V
		}
	}
	if res.Summary.BandwidthEquilibrium >= atSwitch {
		t.Errorf("equilibrium %.3g not below switch-time level %.3g",
			res.Summary.BandwidthEquilibrium, atSwitch)
	}
}

func TestTraceWriterFacade(t *testing.T) {
	var buf strings.Builder
	cfg := quick(HotPages)
	cfg.Duration = 6 * time.Minute
	cfg.TraceWriter = &buf
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	moves := res.Summary.GeoMigrations + res.Summary.GeoReplications +
		res.Summary.LoadMigrations + res.Summary.LoadReplications
	if moves == 0 {
		t.Fatal("no placement activity to trace")
	}
	lines := strings.Count(buf.String(), "\n")
	if int64(lines) < moves {
		t.Errorf("trace has %d lines for %d moves (+drops/refusals)", lines, moves)
	}
	if !strings.Contains(buf.String(), `"kind":"replicate"`) {
		t.Error("trace missing replicate events")
	}
}

func TestLatencyP99AtLeastMean(t *testing.T) {
	res, err := Run(quick(Uniform))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.LatencyP99) != len(res.Latency) {
		t.Fatalf("p99 series length %d != mean series %d", len(res.LatencyP99), len(res.Latency))
	}
	for i := range res.Latency {
		if res.Latency[i].V > 0 && res.LatencyP99[i].V < res.Latency[i].V*0.9 {
			t.Fatalf("bucket %d: p99 %.4f below mean %.4f", i, res.LatencyP99[i].V, res.Latency[i].V)
		}
	}
}
