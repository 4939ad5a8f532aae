package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"radar/internal/object"
	"radar/internal/workload"
)

func TestQuantileNearestRank(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		q    float64
		want float64
	}{{0, 1}, {0.5, 5}, {0.51, 6}, {0.99, 10}, {1, 10}}
	for _, c := range cases {
		if got := quantile(v, c.q); got != c.want {
			t.Errorf("quantile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of an empty sample = %v, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// The PR driver computes spreads with Python's statistics.quantiles(v, n=4);
// these are its answers.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{10, 30, 20})
	if q1 != 10 || q3 != 30 {
		t.Errorf("quartiles(10,20,30) = %v, %v; Python gives 10, 30", q1, q3)
	}
	if got := spreadShare([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spreadShare(1..10) = %v, want 1", got)
	}
}

func TestSchedulesAreAFunctionOfTheSeed(t *testing.T) {
	gen, err := workload.NewZipf(object.Universe{Count: 500, SizeBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	open := func(seed int64) []arrival { return openSchedule(seed, gen, 53, 1000, 2*time.Second) }
	a, b := open(7), open(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different open-loop schedules")
	}
	if reflect.DeepEqual(a, open(8)) {
		t.Fatal("different seeds gave the same open-loop schedule")
	}
	if len(a) < 1800 || len(a) > 2200 {
		t.Errorf("%d arrivals in 2 s at 1000/s", len(a))
	}
	for i, x := range a {
		if x.due >= 2*time.Second || (i > 0 && x.due < a[i-1].due) {
			t.Fatalf("arrival %d due %v: not ascending inside the window", i, x.due)
		}
		if x.gateway < 0 || x.gateway >= 53 || x.object < 0 || x.object >= 500 {
			t.Fatalf("arrival %d out of range: %+v", i, x)
		}
	}
	if !reflect.DeepEqual(closedSchedule(7, gen, 53, 1000), closedSchedule(7, gen, 53, 1000)) {
		t.Fatal("the same seed gave two different closed-loop schedules")
	}
}

func TestBlockCountsInReferenceSeconds(t *testing.T) {
	// 1000 requests in 2 s of work while the reference loop ran at half its
	// nominal speed: 500 a second by the wall clock, 1000 a reference second.
	b := block{served: 1000, work: 2, laps: []float64{2 * refLapNominal, 1.5 * refLapNominal, 2.5 * refLapNominal}}
	if got := b.perSecond(); got != 500 {
		t.Errorf("perSecond = %v, want 500", got)
	}
	if got := b.perRefSecond(); math.Abs(got-1000) > 1e-9 {
		t.Errorf("perRefSecond = %v, want 1000", got)
	}
	// The median block speaks for the run: the cold first one drops out.
	cold := block{served: 1000, work: 4, laps: []float64{refLapNominal}}
	warm := block{served: 1000, work: 1, laps: []float64{refLapNominal}}
	if got := perRefSecond([]block{cold, warm, warm}); math.Abs(got-1000) > 1e-9 {
		t.Errorf("perRefSecond of three blocks = %v, want 1000", got)
	}
}

func TestLapGeneratorPassesDrawsThrough(t *testing.T) {
	gen, err := workload.NewZipf(object.Universe{Count: 500, SizeBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	lapped := &lapGenerator{Generator: gen, ref: newRefLoop()}
	lapped.begin()
	lapped.resumed = lapped.resumed.Add(-2 * lapEvery) // a lap is overdue
	plain, wrapped := workload.Stream(5, 0), workload.Stream(5, 0)
	for i := 0; i < 3*lapCheckEvery; i++ {
		if a, b := gen.Next(3, plain), lapped.Next(3, wrapped); a != b {
			t.Fatalf("draw %d: %v through the lap generator, %v without", i, b, a)
		}
	}
	if lapped.Name() != gen.Name() {
		t.Errorf("name %q, want %q", lapped.Name(), gen.Name())
	}
	if len(lapped.laps) != 1 {
		t.Fatalf("%d laps after an overdue one and %d draws, want 1", len(lapped.laps), 3*lapCheckEvery)
	}
	b := lapped.end(100, time.Second)
	if want := 1 - lapped.laps[0]; math.Abs(b.work-want) > 1e-12 {
		t.Errorf("work %v s of a 1 s wall with a %v s lap inside, want %v", b.work, lapped.laps[0], want)
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "child", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Name: "child", Start: 20 * ms, End: 50 * ms},  // overlaps the first
		{ID: 4, Parent: 1, Name: "child", Start: 90 * ms, End: 120 * ms}, // outlives the parent
		{ID: 5, Parent: 3, Name: "leaf", Start: 25 * ms, End: 35 * ms},
	}
	got := make(map[string]selfTime)
	for _, st := range selfTimes(spans) {
		got[st.Name] = st
	}
	// Children cover 10..50 and 90..100 of the parent: 50 ms.
	if p := got["parent"]; p.Total != 100 || p.Self != 50 || p.Count != 1 {
		t.Errorf("parent = %+v, want total 100 self 50", p)
	}
	// The three children last 20+30+30; the second has a 10 ms leaf under it.
	if c := got["child"]; c.Total != 80 || c.Self != 70 || c.Count != 3 {
		t.Errorf("child = %+v, want total 80 self 70", c)
	}
	if l := got["leaf"]; l.Total != 10 || l.Self != 10 {
		t.Errorf("leaf = %+v, want total 10 self 10", l)
	}
}

func TestStallSecondsIsTheUnionOfLongServes(t *testing.T) {
	s := int64(time.Second)
	spans := []span{
		{Name: "node.serve", Start: 1 * s, End: 3 * s},
		{Name: "client.hop_serve", Start: 2 * s, End: 4 * s},
		{Name: "node.serve", Start: 5 * s, End: 5*s + int64(100*time.Millisecond)}, // under the limit
		{Name: "node.obj", Start: 6 * s, End: 9 * s},                               // not a /serve
		{Name: "node.serve", Start: 0, End: 2 * s},                                 // before the phase
	}
	if got := stallSeconds(spans, 1*s); got != 3 {
		t.Errorf("stallSeconds = %v, want 3", got)
	}
}

func TestJudgeBands(t *testing.T) {
	perS := metricDef{Name: "served_per_ref_s", Better: "higher", Bound: 0.10}
	setup := metricDef{Name: "setup_s", Better: "lower", Bound: 0.25}
	m := func(median, spread float64) ledgerMetric { return ledgerMetric{Median: median, Spread: spread} }
	cases := []struct {
		name     string
		d        metricDef
		old, cur ledgerMetric
		want     string
	}{
		{"inside the band", perS, m(1000, 0.01), m(950, 0.01), verdictSame},
		{"throughput fell past the bound", perS, m(1000, 0.01), m(880, 0.01), verdictWorse},
		{"throughput rose past the bound", perS, m(1000, 0.01), m(1200, 0.01), verdictBetter},
		{"spread wider than the bound", perS, m(1000, 0.15), m(700, 0.01), verdictUnresolved},
		{"set-up worse by under 20 ms", setup, m(0.010, 0.05), m(0.025, 0.05), verdictSame},
		{"set-up worse by over 25 %", setup, m(1.0, 0.02), m(1.3, 0.02), verdictWorse},
	}
	for _, c := range cases {
		if got, _ := judge(c.d, c.old, c.cur); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareReportsWorse(t *testing.T) {
	led := func(perS float64) ledger {
		return ledger{Workloads: []ledgerWorkload{{Name: "sim-zipf", EndToEnd: map[string]ledgerMetric{
			"served_per_ref_s": {Median: perS, Spread: 0.01},
		}}}}
	}
	var out bytes.Buffer
	if compareLedgers(&out, led(1000), led(990)) {
		t.Errorf("a 1 %% change was reported worse:\n%s", out.String())
	}
	if !compareLedgers(&out, led(1000), led(500)) {
		t.Errorf("a halved throughput was not reported worse:\n%s", out.String())
	}
	failing := led(1000)
	failing.Workloads[0].Failed = 3
	if !compareLedgers(&out, led(1000), failing) {
		t.Errorf("failed operations rose and the comparison passed:\n%s", out.String())
	}
}

// BENCHMARK.json at the repository root is the PR driver's view of the spec;
// the committed bytes must be the ones -print-benchmark-json writes.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	have, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := printBenchmarkJSON(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(have, want.Bytes()) {
		t.Error("BENCHMARK.json differs from the spec; regenerate it with `.bench_build/radar-benchmark -print-benchmark-json > BENCHMARK.json`")
	}
}

// The smoke test builds the benchmark and runs one simulator and one live
// workload at reduced scale, end to end: set-up children, measured phase,
// output checks, result line.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the benchmark binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "radar-benchmark")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, name := range []string{"sim-churn", "live-quiet"} {
		out, err := exec.Command(bin, "-quick", "-workload", name, "-seconds", "1", "-seed", "3", "-out", dir).Output()
		if err != nil {
			t.Fatalf("%s: %v\n%s", name, err, out)
		}
		line, detail, err := readLines(out)
		if err != nil {
			t.Fatalf("%s: %v\n%s", name, err, out)
		}
		if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d problems=%v", name, line.Correct, line.Attempted, line.Failed, detail.Problems)
		}
		// The driver's contract: the last line has exactly these four keys.
		var keys map[string]json.RawMessage
		last := out[bytes.LastIndexByte(bytes.TrimSpace(out), '\n')+1:]
		if err := json.Unmarshal(last, &keys); err != nil || len(keys) != 4 {
			t.Errorf("%s: result line has %d keys, want correct, attempted, failed, metrics: %s", name, len(keys), last)
		}
		for _, d := range endToEnd {
			if v := line.Metrics[d.Name]; v.Value <= 0 || v.Unit != d.Unit {
				t.Errorf("%s: %s = %+v", name, d.Name, v)
			}
		}
		if len(line.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics on the result line, want the %d end-to-end ones", name, len(line.Metrics), len(endToEnd))
		}
	}
}
