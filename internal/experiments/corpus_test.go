package experiments

import (
	"sync"
	"testing"

	"radar/internal/scenario"
)

// fullCorpus runs the whole scenario corpus once, at parallelism 4 and
// seed 1, for every test that reads it.
var fullCorpus = sync.OnceValues(func() (*CorpusReport, error) {
	return RunCorpus(Options{Seed: 1, Parallelism: 4}, nil)
})

// TestRunCorpus is the corpus acceptance run: it executes the full
// scenario corpus at parallelism 4, checks the comparison is complete,
// and asserts the headline claim — the availability-aware objective beats
// the legacy policy on the availability metrics of both outage scenarios.
func TestRunCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("integration runs")
	}
	rep, err := fullCorpus()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != len(scenario.Corpus()) {
		t.Fatalf("corpus report has %d runs, want %d", len(rep.Runs), len(scenario.Corpus()))
	}
	outage := map[string]bool{
		"flash-crowd-regional-outage": true,
		"correlated-rack-failures":    true,
	}
	for _, run := range rep.Runs {
		name := run.Scenario.Name
		if run.Legacy == nil || run.Avail == nil || run.Oracle == nil {
			t.Fatalf("%s: missing variant results", name)
		}
		if !outage[name] {
			continue
		}
		if run.AvailM.Availability <= run.LegacyM.Availability {
			t.Errorf("%s: availability-aware availability %.6f does not beat legacy %.6f",
				name, run.AvailM.Availability, run.LegacyM.Availability)
		}
		if run.AvailM.FailedRequests >= run.LegacyM.FailedRequests {
			t.Errorf("%s: availability-aware failed requests %d do not beat legacy %d",
				name, run.AvailM.FailedRequests, run.LegacyM.FailedRequests)
		}
		if run.AvailM.UnavailObjSecs > run.LegacyM.UnavailObjSecs {
			t.Errorf("%s: availability-aware unavailable object-seconds %.0f exceed legacy %.0f",
				name, run.AvailM.UnavailObjSecs, run.LegacyM.UnavailObjSecs)
		}
	}
}

// TestRunCorpusParallelismInvariance: the corpus comparison is
// bit-identical at parallelism 1 and 4 — every metric of every variant of
// every scenario matches exactly.
func TestRunCorpusParallelismInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("integration runs")
	}
	full, err := fullCorpus()
	if err != nil {
		t.Fatal(err)
	}
	par := map[string]CorpusRun{}
	for _, run := range full.Runs {
		par[run.Scenario.Name] = run
	}
	scens := []scenario.Scenario{}
	for _, name := range []string{"steady-state-baseline", "correlated-rack-failures", "cache-over-disk-tier"} {
		sc, ok := scenario.ByName(name)
		if !ok {
			t.Fatalf("scenario %s missing from corpus", name)
		}
		scens = append(scens, sc)
	}
	seq, err := RunCorpus(Options{Seed: 1, Parallelism: 1}, scens)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Runs) != len(scens) {
		t.Fatalf("got %d runs, want %d", len(seq.Runs), len(scens))
	}
	for _, s := range seq.Runs {
		name := s.Scenario.Name
		p := par[name]
		if s.LegacyM != p.LegacyM {
			t.Errorf("%s legacy metrics differ across parallelism:\n p=1: %+v\n p=4: %+v", name, s.LegacyM, p.LegacyM)
		}
		if s.AvailM != p.AvailM {
			t.Errorf("%s avail metrics differ across parallelism:\n p=1: %+v\n p=4: %+v", name, s.AvailM, p.AvailM)
		}
		if s.OracleM != p.OracleM {
			t.Errorf("%s oracle metrics differ across parallelism:\n p=1: %+v\n p=4: %+v", name, s.OracleM, p.OracleM)
		}
	}
}
