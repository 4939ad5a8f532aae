package experiments

import (
	"reflect"
	"testing"
	"time"

	"radar/internal/fault"
)

// TestFaultedRunsDeterministicAcrossParallelism pins the acceptance
// criterion that a nonzero-fault run is bit-identical regardless of
// engine parallelism: the fault timeline is expanded up front from a
// dedicated PRNG stream, so worker scheduling cannot perturb it.
func TestFaultedRunsDeterministicAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("integration runs")
	}
	makeJobs := func() []Job {
		jobs := make([]Job, 0, 3)
		for i, mtbf := range []time.Duration{4 * time.Minute, 7 * time.Minute, 11 * time.Minute} {
			opts := Options{Seed: int64(i + 1), Quick: true}
			cfg, err := opts.dynamic("uniform")
			if err != nil {
				t.Fatal(err)
			}
			cfg.Duration = 8 * time.Minute
			cfg.Protocol.ReplicaFloor = 2
			cfg.Faults = fault.Spec{HostMTBF: mtbf, HostMTTR: time.Minute}
			jobs = append(jobs, Job{Label: mtbf.String(), Config: cfg})
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
		if a.Failures == 0 {
			t.Errorf("job %d: no failures fired; the test is not exercising faults", i)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("job %d (%s): faulted results differ between parallelism 1 and GOMAXPROCS", i, serial[i].Label)
		}
	}
}
