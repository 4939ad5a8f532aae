package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"radar/internal/fault"
	"radar/internal/object"
	"radar/internal/sim"
	"radar/internal/substrate"
	"radar/internal/workload"
)

// update rewrites the golden files instead of comparing against them:
//
//	go test ./internal/experiments/ -run TestGolden -update
//
// Regenerate ONLY when an intentional behavior change shifts the outputs;
// the whole point of these files is to catch unintentional shifts.
var update = flag.Bool("update", false, "rewrite golden files under testdata/golden/")

// suiteGoldenHash is the FNV-64a hash of the rendered multi-seed quick
// suite table (seeds 1-2, 16 runs), recorded before the fault-injection
// subsystem existed. The suite configures no faults, so its output pins
// the zero-fault bit-identity guarantee: if this hash moves, some
// fault-path check leaked into the fault-free hot path.
const suiteGoldenHash = "69d09600928e18d3"

func goldenPath(t *testing.T, name string) string {
	t.Helper()
	return filepath.Join("testdata", "golden", name)
}

// checkGolden compares got against the named golden file, rewriting the
// file under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := goldenPath(t, name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create it): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s (run with -update after verifying the change is intentional)\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

// goldenSuite runs the multi-seed quick suite (seeds 1-2, 16 runs) at the
// given parallelism, fails tb unless the rendered table hashes to
// suiteGoldenHash, and returns the suites and the rendered bytes.
func goldenSuite(tb testing.TB, parallelism int) (*MultiSeed, []byte) {
	tb.Helper()
	ms, err := RunMultiSeed(Options{Seed: 1, Quick: true, Parallelism: parallelism}, []int64{1, 2}, false)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ms.Table().Render(&buf); err != nil {
		tb.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(buf.Bytes())
	if got := fmt.Sprintf("%x", h.Sum64()); got != suiteGoldenHash {
		tb.Errorf("suite table hash %s at parallelism %d, want %s (zero-fault output is no longer bit-identical to the baseline)", got, parallelism, suiteGoldenHash)
	}
	return ms, buf.Bytes()
}

// TestGoldenSuiteTable pins the rendered multi-seed quick suite table
// byte-for-byte, and its hash against the pre-fault-subsystem baseline,
// then checks at both seeds that the qualitative claims of §6.2 hold end
// to end and that every figure renders and writes its CSV.
func TestGoldenSuiteTable(t *testing.T) {
	if testing.Short() {
		t.Skip("16-run suite")
	}
	ms, table := goldenSuite(t, 0)
	checkGolden(t, "suite_table.txt", table)
	for i, suite := range ms.Suites {
		t.Run(fmt.Sprintf("seed=%d", ms.Seeds[i]), func(t *testing.T) { checkSuiteClaims(t, suite) })
	}
}

// checkSuiteClaims asserts the §6.2 claims a quick-scale suite reproduces
// and that its artifacts render.
func checkSuiteClaims(t *testing.T, suite *Suite) {
	for _, name := range WorkloadNames {
		r := suite.Runs[name]
		if r == nil {
			t.Fatalf("missing run %q", name)
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
		} else if len(data) < 100 {
			t.Errorf("CSV %s suspiciously small (%d bytes)", f, len(data))
		}
	}
}

// BenchmarkMultiSeedSuite times the experiment engine on the suite
// TestGoldenSuiteTable pins, at parallelism 1, 2 and 4; every iteration
// must reproduce the golden table hash.
func BenchmarkMultiSeedSuite(b *testing.B) {
	for _, p := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				goldenSuite(b, p)
			}
		})
	}
}

// runSnapshot is the deterministic slice of a run's results the per-run
// goldens pin. Every field is exactly reproducible for a fixed seed; wall
// times and anything host-dependent are excluded.
type runSnapshot struct {
	TotalServed          int64   `json:"total_served"`
	TimedOut             int64   `json:"timed_out"`
	DroppedChoices       int64   `json:"dropped_choices"`
	GeoMigrations        int64   `json:"geo_migrations"`
	GeoReplications      int64   `json:"geo_replications"`
	LoadMigrations       int64   `json:"load_migrations"`
	LoadReplications     int64   `json:"load_replications"`
	Drops                int64   `json:"drops"`
	Refusals             int64   `json:"refusals"`
	AvgReplicas          float64 `json:"avg_replicas"`
	BandwidthInitial     float64 `json:"bandwidth_initial"`
	BandwidthEquilibrium float64 `json:"bandwidth_equilibrium"`
	LatencyEquilibrium   float64 `json:"latency_equilibrium"`
	MaxLoadPeak          float64 `json:"max_load_peak"`
	MaxLoadSettled       float64 `json:"max_load_settled"`

	Failures           int64   `json:"failures"`
	Recoveries         int64   `json:"recoveries"`
	LinkFailures       int64   `json:"link_failures"`
	LinkRecoveries     int64   `json:"link_recoveries"`
	FailedRequests     int64   `json:"failed_requests"`
	Outages            int64   `json:"outages"`
	UnavailObjSecs     float64 `json:"unavailable_object_seconds"`
	BelowFloorObjSecs  float64 `json:"below_floor_object_seconds"`
	RepairReplications int64   `json:"repair_replications"`
	RepairByteHops     int64   `json:"repair_byte_hops"`

	CtrlEnabled       bool  `json:"ctrl_enabled"`
	CtrlAttempts      int64 `json:"ctrl_attempts"`
	CtrlRetries       int64 `json:"ctrl_retries"`
	CtrlTimeouts      int64 `json:"ctrl_timeouts"`
	CtrlLost          int64 `json:"ctrl_lost"`
	CtrlDroppedLegs   int64 `json:"ctrl_dropped_legs"`
	CtrlDupLegs       int64 `json:"ctrl_dup_legs"`
	CtrlNotifiesSent  int64 `json:"ctrl_notifies_sent"`
	CtrlNotifiesLost  int64 `json:"ctrl_notifies_lost"`
	DeferredMoves     int64 `json:"deferred_moves"`
	OrphansHealed     int64 `json:"orphans_healed"`
	StaleAffinity     int64 `json:"stale_affinity_repaired"`
	GhostsRemoved     int64 `json:"ghosts_removed"`
	ReconcileRuns     int64 `json:"reconcile_runs"`
	ReconcileByteHops int64 `json:"reconcile_byte_hops"`
}

func snapshot(res *sim.Results) runSnapshot {
	return runSnapshot{
		TotalServed:          res.TotalServed,
		TimedOut:             res.TimedOutRequests,
		DroppedChoices:       res.DroppedChoices,
		GeoMigrations:        res.Counters.GeoMigrations,
		GeoReplications:      res.Counters.GeoReplications,
		LoadMigrations:       res.Counters.LoadMigrations,
		LoadReplications:     res.Counters.LoadReplications,
		Drops:                res.Counters.Drops,
		Refusals:             res.Counters.Refusals,
		AvgReplicas:          res.AvgReplicas,
		BandwidthInitial:     res.BandwidthStats.Initial,
		BandwidthEquilibrium: res.BandwidthStats.Equilibrium,
		LatencyEquilibrium:   res.LatencyStats.Equilibrium,
		MaxLoadPeak:          res.MaxLoadPeak,
		MaxLoadSettled:       res.MaxLoadSettled,
		Failures:             res.Failures,
		Recoveries:           res.Recoveries,
		LinkFailures:         res.LinkFailures,
		LinkRecoveries:       res.LinkRecoveries,
		FailedRequests:       res.FailedRequests,
		Outages:              res.Outages,
		UnavailObjSecs:       res.UnavailObjSecs,
		BelowFloorObjSecs:    res.BelowFloorObjSecs,
		RepairReplications:   res.Counters.RepairReplications,
		RepairByteHops:       res.RepairByteHops,
		CtrlEnabled:          res.CtrlEnabled,
		CtrlAttempts:         res.CtrlStats.Attempts,
		CtrlRetries:          res.CtrlStats.Retries,
		CtrlTimeouts:         res.CtrlStats.Timeouts,
		CtrlLost:             res.CtrlStats.Lost,
		CtrlDroppedLegs:      res.CtrlStats.DroppedLegs,
		CtrlDupLegs:          res.CtrlStats.DupLegs,
		CtrlNotifiesSent:     res.CtrlStats.NotifiesSent,
		CtrlNotifiesLost:     res.CtrlStats.NotifiesLost,
		DeferredMoves:        res.Counters.DeferredMoves,
		OrphansHealed:        res.OrphansHealed,
		StaleAffinity:        res.StaleAffinityRepaired,
		GhostsRemoved:        res.GhostsRemoved,
		ReconcileRuns:        res.ReconcileRuns,
		ReconcileByteHops:    res.ReconcileByteHops,
	}
}

// TestGoldenRunMetrics pins per-run metrics for three canonical
// configurations: the paper's dynamic protocol, its high-load variant,
// and a faulted run with a replica floor (the availability extension's
// numbers are golden too — fault injection is bit-reproducible).
func TestGoldenRunMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("integration runs")
	}
	topo := substrate.UUNET().Topo
	u := object.Universe{Count: 2000, SizeBytes: 12 << 10}
	gens := make(map[string]workload.Generator)
	for _, name := range []string{"zipf", "hot-sites", "uniform"} {
		gen, err := workload.Named(name, u, topo, 1)
		if err != nil {
			t.Fatal(err)
		}
		gens[name] = gen
	}
	cases := []struct {
		name string
		cfg  func() sim.Config
	}{
		{"zipf_dynamic", func() sim.Config {
			cfg := sim.DefaultConfig(gens["zipf"], 1)
			cfg.Universe = u
			cfg.Duration = 8 * time.Minute
			return cfg
		}},
		{"hotsites_highload", func() sim.Config {
			cfg := sim.DefaultConfig(gens["hot-sites"], 1)
			cfg.Universe = u
			cfg.Duration = 8 * time.Minute
			cfg.Protocol.HighWatermark = 50
			cfg.Protocol.LowWatermark = 40
			return cfg
		}},
		{"uniform_faults", func() sim.Config {
			cfg := sim.DefaultConfig(gens["uniform"], 1)
			cfg.Universe = u
			cfg.Duration = 10 * time.Minute
			cfg.Protocol.ReplicaFloor = 2
			cfg.Faults = fault.Spec{
				Events: []fault.Event{
					{Kind: fault.HostDown, At: 3 * time.Minute, Node: 9},
					{Kind: fault.HostUp, At: 8 * time.Minute, Node: 9},
					{Kind: fault.LinkDown, At: 4 * time.Minute, A: 12, B: 13},
					{Kind: fault.LinkUp, At: 6 * time.Minute, A: 12, B: 13},
				},
			}
			return cfg
		}},
		{"zipf_ctrl_lossy", func() sim.Config {
			cfg := sim.DefaultConfig(gens["zipf"], 1)
			cfg.Universe = u
			cfg.Duration = 10 * time.Minute
			cfg.Protocol.ReplicaFloor = 2
			cfg.Faults = fault.Spec{
				MsgDrop:  0.2,
				MsgDup:   0.1,
				MsgDelay: 20 * time.Millisecond,
			}
			return cfg
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			s, err := sim.New(tc.cfg())
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.InvariantsError != nil {
				t.Fatalf("invariants: %v", res.InvariantsError)
			}
			got, err := json.MarshalIndent(snapshot(res), "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			checkGolden(t, "run_"+tc.name+".json", got)
		})
	}
}
