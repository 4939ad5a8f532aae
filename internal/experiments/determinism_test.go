package experiments

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"testing"
	"time"

	"radar/internal/sim"
)

// raceOver returns the reduced-scale override used by heavy integration
// tests when the race detector is on. The detector multiplies simulation
// cost several-fold; shrinking the simulated scale keeps the exact same
// concurrency structure (same jobs, same worker pool, same shared
// generators) within the test timeout, trading only physics fidelity,
// which the non-race run still covers. It returns nil without -race.
func raceOver() *scaleOverride {
	if !raceEnabled {
		return nil
	}
	return &scaleOverride{Objects: 300, Dynamic: 2 * time.Minute, Static: time.Minute}
}

// tinyOptions shrinks the suite far below Quick scale so determinism can
// be checked end to end in seconds.
func tinyOptions(seed int64, parallelism int) Options {
	over := &scaleOverride{Objects: 300, Dynamic: 2 * time.Minute, Static: time.Minute}
	if raceEnabled {
		over.Dynamic = time.Minute
	}
	return Options{
		Seed:        seed,
		Quick:       true,
		Parallelism: parallelism,
		over:        over,
	}
}

// runSerial is the reference execution: the jobs one after another on the
// calling goroutine, no engine involved.
func runSerial(t *testing.T, jobs []Job) []*sim.Results {
	t.Helper()
	out := make([]*sim.Results, len(jobs))
	for i, j := range jobs {
		res, err := runOne(context.Background(), j.Config)
		if err != nil {
			t.Fatalf("serial run %q: %v", j.Label, err)
		}
		out[i] = res
	}
	return out
}

// TestEngineMatchesSerialExecution: the engine at parallelism 1 and at
// GOMAXPROCS must produce results bit-identical to a plain sequential
// loop over the same jobs (same Options.Seed throughout).
func TestEngineMatchesSerialExecution(t *testing.T) {
	jobs, err := suiteJobs(tinyOptions(7, 0), false)
	if err != nil {
		t.Fatal(err)
	}
	want := runSerial(t, jobs)

	for _, p := range []int{1, runtime.GOMAXPROCS(0)} {
		results, err := Engine{Parallelism: p}.Run(context.Background(), jobs)
		if err != nil {
			t.Fatalf("parallelism %d: %v", p, err)
		}
		for i, r := range results {
			if r.Label != jobs[i].Label {
				t.Fatalf("parallelism %d: result %d is %q, want %q", p, i, r.Label, jobs[i].Label)
			}
			if !reflect.DeepEqual(r.Results, want[i]) {
				t.Errorf("parallelism %d: run %q differs from serial execution", p, r.Label)
			}
		}
	}
}

// TestSuiteDeterministicRepeat: the same Options.Seed through the full
// suite pipeline twice yields identical runs and byte-identical rendered
// artifacts.
func TestSuiteDeterministicRepeat(t *testing.T) {
	first, err := RunSuite(tinyOptions(3, 0), false)
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunSuite(tinyOptions(3, 0), false)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range WorkloadNames {
		a, b := first.Runs[name], second.Runs[name]
		if !reflect.DeepEqual(a.Dynamic, b.Dynamic) || !reflect.DeepEqual(a.Static, b.Static) {
			t.Errorf("workload %q differs between two runs with the same seed", name)
		}
	}
	var bufA, bufB bytes.Buffer
	if err := first.RenderAll(&bufA); err != nil {
		t.Fatal(err)
	}
	if err := second.RenderAll(&bufB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Error("rendered artifacts differ between two runs with the same seed")
	}
}

// TestMultiSeedDeterministicAcrossParallelism: a multi-seed batch (>= 4
// seeds) produces byte-identical aggregated tables whether it runs
// sequentially or fanned out across the worker pool.
func TestMultiSeedDeterministicAcrossParallelism(t *testing.T) {
	seeds := []int64{1, 2, 3, 4}
	serial, err := RunMultiSeed(tinyOptions(1, 1), seeds, false)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunMultiSeed(tinyOptions(1, 0), seeds, false)
	if err != nil {
		t.Fatal(err)
	}
	var bufA, bufB bytes.Buffer
	if err := serial.Table().Render(&bufA); err != nil {
		t.Fatal(err)
	}
	if err := parallel.Table().Render(&bufB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Errorf("aggregated tables differ between parallelism 1 and GOMAXPROCS:\n%s\nvs\n%s",
			bufA.String(), bufB.String())
	}
	for i := range seeds {
		for _, name := range WorkloadNames {
			a := serial.Suites[i].Runs[name]
			b := parallel.Suites[i].Runs[name]
			if !reflect.DeepEqual(a.Dynamic, b.Dynamic) {
				t.Errorf("seed %d workload %q dynamic run differs across parallelism", seeds[i], name)
			}
		}
	}
}
