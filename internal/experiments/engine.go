package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"radar/internal/sim"
)

// This file implements the unified parallel experiment engine. The
// paper's evaluation is reproduced by running many independent
// single-threaded simulations — workloads x seeds x ablation points — so
// the harness fans them out over a bounded worker pool. Every batch
// entry point in this package (RunSuite, RunMultiSeed, RunAblations, the
// studies, RunCorpus) funnels through Engine.Run, which has one error
// mode: the first failure stops the batch and is returned.
//
// Concurrency safety rests on each sim.Config being self-contained: a
// simulation derives every RNG stream from its own Seed and builds its
// own topology, routing table, hosts and collectors in sim.New. The
// paper's workload generators are immutable after construction (their
// Next methods only read), so sharing one generator across concurrent
// jobs is safe. Configs that carry *stateful* shared components — a
// stateful generator or an ExtraObserver — must not appear in more than
// one job of a batch; give each job its own instance.

// Job is one labeled simulation in an engine batch.
type Job struct {
	// Label identifies the job in errors and timing reports.
	Label string
	// Config is the full simulation configuration. It must not share
	// mutable components (stateful generators, observers) with any other
	// job in the same batch.
	Config sim.Config
}

// JobResult pairs a job with its outcome. Results are always returned in
// input order regardless of completion order.
type JobResult struct {
	Label   string
	Results *sim.Results
	// Err is the job's failure, nil on success. Jobs abandoned after
	// another job's failure or a canceled context carry an error wrapping
	// context.Canceled.
	Err error
	// Wall is the job's wall-clock execution time (zero for jobs that
	// never ran).
	Wall time.Duration
}

// Engine executes batches of independent simulations on a bounded worker
// pool. The zero value is ready to use: GOMAXPROCS workers.
type Engine struct {
	// Parallelism bounds how many simulations run concurrently; <= 0
	// selects GOMAXPROCS. Each simulation is single-threaded and
	// CPU-bound, so GOMAXPROCS workers saturate the machine and the
	// effective worker count is capped there: extra workers could not add
	// throughput, they would only interleave working sets through the
	// cache (a measurable slowdown on small machines). Results are
	// bit-identical at every requested level either way — see the
	// determinism suite.
	Parallelism int
}

// Run executes jobs and returns one JobResult per job, in input order.
// Identical job lists produce identical Results regardless of
// Parallelism: per-run determinism comes from each config's Seed, and
// the pool never shares state between jobs.
//
// A failing job stops the batch: Run returns the first error (lowest
// input index, see FirstError), not-yet-started jobs are abandoned with a
// cancellation error, and jobs already in flight are interrupted promptly
// (the simulation engine polls cancellation every few thousand events)
// and report a cancellation error. Canceling ctx abandons and interrupts
// jobs the same way and makes Run return ctx's error.
func (e Engine) Run(ctx context.Context, jobs []Job) ([]JobResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	p := e.Parallelism
	if procs := runtime.GOMAXPROCS(0); p <= 0 || p > procs {
		p = procs
	}
	if p > len(jobs) {
		p = len(jobs)
	}
	out := make([]JobResult, len(jobs))
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < p; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i] = e.runJob(runCtx, jobs[i])
				if out[i].Err != nil {
					cancel()
				}
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return out, err
	}
	return out, FirstError(out)
}

// runJob executes one job under ctx, timing it. A job whose context is
// already canceled is abandoned without running; one canceled mid-run is
// interrupted and reports the cancellation.
func (e Engine) runJob(ctx context.Context, j Job) JobResult {
	select {
	case <-ctx.Done():
		return JobResult{Label: j.Label, Err: fmt.Errorf("experiments: job %q abandoned: %w", j.Label, context.Canceled)}
	default:
	}
	start := time.Now()
	res, err := runOne(ctx, j.Config)
	if err != nil {
		err = fmt.Errorf("experiments: job %q: %w", j.Label, err)
	}
	return JobResult{Label: j.Label, Results: res, Err: err, Wall: time.Since(start)}
}

// FirstError returns the first real failure in input order, skipping
// cancellation-abandoned jobs so the error that stopped the batch is
// reported rather than its fallout. It returns nil if every job
// succeeded or was merely abandoned.
func FirstError(results []JobResult) error {
	var abandoned error
	for _, r := range results {
		if r.Err == nil {
			continue
		}
		if errors.Is(r.Err, context.Canceled) {
			if abandoned == nil {
				abandoned = r.Err
			}
			continue
		}
		return r.Err
	}
	return abandoned
}
