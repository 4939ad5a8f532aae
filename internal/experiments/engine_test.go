package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"radar/internal/object"
	"radar/internal/sim"
	"radar/internal/workload"
)

func tinyConfig(t *testing.T, seed int64) sim.Config {
	t.Helper()
	u := object.Universe{Count: 300, SizeBytes: 12 << 10}
	gen, err := workload.NewUniform(u)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig(gen, seed)
	cfg.Universe = u
	cfg.Duration = time.Minute
	return cfg
}

// engineJobs builds n tiny, independent jobs with distinct seeds.
func engineJobs(t *testing.T, n int) []Job {
	t.Helper()
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{Label: fmt.Sprintf("job-%d", i), Config: tinyConfig(t, int64(i+1))}
	}
	return jobs
}

func TestEnginePreservesInputOrder(t *testing.T) {
	jobs := engineJobs(t, 4)
	results, err := Engine{Parallelism: 3}.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(jobs) {
		t.Fatalf("got %d results, want %d", len(results), len(jobs))
	}
	for i, r := range results {
		if r.Label != jobs[i].Label {
			t.Errorf("result %d label = %q, want %q (input order)", i, r.Label, jobs[i].Label)
		}
		if r.Err != nil {
			t.Errorf("job %q failed: %v", r.Label, r.Err)
		}
		if r.Results == nil || r.Results.TotalServed == 0 {
			t.Errorf("job %q produced no results", r.Label)
		}
		if r.Wall <= 0 {
			t.Errorf("job %q has no wall-clock recorded", r.Label)
		}
	}
}

// TestEngineFailFast: the first failing job's error is returned and the
// good results that did run are still available.
func TestEngineFailFast(t *testing.T) {
	jobs := engineJobs(t, 3)
	jobs[0].Config.NodeRequestRPS = -1
	results, err := Engine{Parallelism: 1}.Run(context.Background(), jobs)
	if err == nil {
		t.Fatal("fail-fast Run returned nil error")
	}
	if !strings.Contains(err.Error(), jobs[0].Label) {
		t.Errorf("error %q does not name the failing job %q", err, jobs[0].Label)
	}
	if results[0].Err == nil {
		t.Error("failing job has no recorded error")
	}
	// With parallelism 1 and the failure first, the remaining jobs must
	// have been abandoned, not run.
	for _, r := range results[1:] {
		if r.Err == nil || !errors.Is(r.Err, context.Canceled) {
			t.Errorf("job %q = %+v, want abandoned with context.Canceled", r.Label, r.Err)
		}
		if r.Results != nil {
			t.Errorf("abandoned job %q carries results", r.Label)
		}
	}
}

func TestEngineCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	jobs := engineJobs(t, 2)
	results, err := Engine{}.Run(ctx, jobs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run with canceled ctx returned %v, want context.Canceled", err)
	}
	for _, r := range results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("job %q = %v, want context.Canceled", r.Label, r.Err)
		}
	}
}

func TestEngineEmptyBatch(t *testing.T) {
	results, err := Engine{}.Run(context.Background(), nil)
	if err != nil || len(results) != 0 {
		t.Fatalf("empty batch: results=%v err=%v", results, err)
	}
}

// TestEngineRaceSmoke drives a wide batch at maximum parallelism; under
// `go test -race` this is the smoke test that independent simulations
// share no mutable state. It always runs (tiny scale); the full quick
// suite gets the same treatment in TestRunSuiteQuick when -short is off.
func TestEngineRaceSmoke(t *testing.T) {
	n := 2 * runtime.GOMAXPROCS(0)
	if n < 4 {
		n = 4
	}
	jobs := engineJobs(t, n)
	results, err := Engine{Parallelism: n}.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Errorf("job %q failed: %v", r.Label, r.Err)
		}
	}
}

// TestEngineFailFastStopsLongTail: cancellation must abandon queued work
// rather than run the whole batch. With parallelism 1, everything after
// the failure is skipped, so the batch finishes far faster than its
// serial cost would be.
func TestEngineFailFastStopsLongTail(t *testing.T) {
	const n = 16
	jobs := make([]Job, n)
	for i := range jobs {
		cfg := tinyConfig(t, int64(i+1))
		cfg.Duration = 5 * time.Minute
		jobs[i] = Job{Label: fmt.Sprintf("tail-%d", i), Config: cfg}
	}
	jobs[0].Config.NodeRequestRPS = -1
	results, err := Engine{Parallelism: 1}.Run(context.Background(), jobs)
	if err == nil {
		t.Fatal("want error")
	}
	ran := 0
	for _, r := range results {
		if r.Results != nil {
			ran++
		}
	}
	if ran != 0 {
		t.Errorf("%d jobs ran after the first failure with parallelism 1, want 0", ran)
	}
}
