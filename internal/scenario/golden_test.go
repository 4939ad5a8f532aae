package scenario

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"radar/internal/sim"
)

// update regenerates the golden acceptance files:
//
//	go test ./internal/scenario/ -run TestCorpusGolden -update
//
// Regenerate only when a deliberate behavior change shifts the corpus
// metrics, and say why in the commit message (the -update etiquette of
// EXPERIMENTS.md).
var update = flag.Bool("update", false, "rewrite golden scenario acceptance files")

// corpusRun is one scenario's shared run: golden and property tests judge
// the same simulation instead of paying for it twice.
type corpusRun struct {
	sim *sim.Simulation
	res *sim.Results
	err error
}

var (
	runMu    sync.Mutex
	runCache = map[string]*corpusRun{}
)

// runScenario runs (once) and returns the named corpus scenario.
func runScenario(t *testing.T, name string) *corpusRun {
	t.Helper()
	runMu.Lock()
	defer runMu.Unlock()
	if r, ok := runCache[name]; ok {
		if r.err != nil {
			t.Fatal(r.err)
		}
		return r
	}
	r := &corpusRun{}
	runCache[name] = r
	sc, ok := ByName(name)
	if !ok {
		t.Fatalf("no scenario %q in corpus", name)
	}
	cfg, err := sc.Config()
	if err != nil {
		r.err = err
		t.Fatal(err)
	}
	s, err := sim.New(cfg)
	if err != nil {
		r.err = err
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		r.err = err
		t.Fatal(err)
	}
	r.sim, r.res = s, res
	return r
}

func goldenPath(name string) string {
	return filepath.Join("testdata", "golden", name+".json")
}

// TestCorpusGolden is the corpus acceptance gate: every scenario's
// metrics must match its golden file within the scenario's tolerances,
// and the golden must carry the scenario's current version.
func TestCorpusGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("integration runs")
	}
	for _, sc := range Corpus() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			got := MetricsFrom(runScenario(t, sc.Name).res)
			path := goldenPath(sc.Name)
			if *update {
				data, err := json.MarshalIndent(Golden{Version: sc.Version, Metrics: got}, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s", path)
				return
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to generate): %v", err)
			}
			var want Golden
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatalf("corrupt golden file %s: %v", path, err)
			}
			if want.Version != sc.Version {
				t.Fatalf("golden generated for scenario version %d, corpus is at %d — regenerate with -update",
					want.Version, sc.Version)
			}
			for _, v := range checkMetrics(got, want.Metrics, sc.Tolerances) {
				t.Errorf("acceptance gate: %s", v)
			}
		})
	}
}

// field is one named metric value for tolerance comparison.
type field struct {
	name string
	v    float64
}

func (m Metrics) fields() []field {
	return []field{
		{"TotalServed", float64(m.TotalServed)},
		{"FailedRequests", float64(m.FailedRequests)},
		{"TimedOutRequests", float64(m.TimedOutRequests)},
		{"Availability", m.Availability},
		{"HitRatio", m.HitRatio},
		{"Outages", float64(m.Outages)},
		{"UnavailObjSecs", m.UnavailObjSecs},
		{"BelowFloorObjSecs", m.BelowFloorObjSecs},
		{"DeferredMoves", float64(m.DeferredMoves)},
		{"RepairReplications", float64(m.RepairReplications)},
		{"RepairByteHops", float64(m.RepairByteHops)},
		{"ReconcileByteHops", float64(m.ReconcileByteHops)},
		{"BandwidthEq", m.BandwidthEq},
		{"LatencyEq", m.LatencyEq},
		{"AvgReplicas", m.AvgReplicas},
		{"TotalMoves", float64(m.TotalMoves)},
		{"StoreHits", float64(m.StoreHits)},
		{"StoreMisses", float64(m.StoreMisses)},
		{"StoreEvictions", float64(m.StoreEvictions)},
	}
}

// checkMetrics compares got against the golden want under tol (field name →
// relative tolerance; absolute when the golden value is zero; missing
// field → exact match). It returns one violation string per metric
// outside its gate, empty when the run is accepted.
func checkMetrics(got, want Metrics, tol map[string]float64) []string {
	var violations []string
	gf, wf := got.fields(), want.fields()
	for i := range gf {
		name := gf[i].name
		g, w := gf[i].v, wf[i].v
		allowed := tol[name] * math.Abs(w)
		if w == 0 {
			allowed = tol[name]
		}
		if diff := math.Abs(g - w); diff > allowed {
			violations = append(violations,
				fmt.Sprintf("%s = %v, golden %v (|diff| %v > allowed %v)", name, g, w, diff, allowed))
		}
	}
	return violations
}
