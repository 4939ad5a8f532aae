package experiments

import (
	"reflect"
	"testing"
	"time"

	"radar/internal/fault"
)

// TestLossyRunsDeterministicAcrossParallelism pins the acceptance
// criterion that a lossy-control-plane run is bit-identical regardless of
// engine parallelism: drop/dup/delay draws, retry jitter and token
// allocation all come from per-run state seeded off the master seed, so
// worker scheduling cannot perturb them.
func TestLossyRunsDeterministicAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("integration runs")
	}
	makeJobs := func() []Job {
		jobs := make([]Job, 0, 3)
		for i, drop := range []float64{0.05, 0.2, 0.5} {
			opts := Options{Seed: int64(i + 1), Quick: true}
			cfg, err := opts.dynamic("zipf")
			if err != nil {
				t.Fatal(err)
			}
			cfg.Duration = 8 * time.Minute
			cfg.Protocol.ReplicaFloor = 2
			cfg.Faults = fault.Spec{MsgDrop: drop, MsgDup: 0.05, MsgDelay: 20 * time.Millisecond}
			jobs = append(jobs, Job{Label: "drop", Config: cfg})
		}
		return jobs
	}
	serial, err := Options{Parallelism: 1}.run(makeJobs())
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Options{Parallelism: 0}.run(makeJobs())
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("result counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		a, b := serial[i].Results, parallel[i].Results
		if a.CtrlStats.Attempts == 0 {
			t.Errorf("job %d: no control RPCs fired; the test is not exercising the plane", i)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("job %d: lossy results differ between parallelism 1 and GOMAXPROCS", i)
		}
	}
}
