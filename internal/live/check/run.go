package check

import (
	"context"
	"errors"
	"fmt"
	"time"

	"radar/internal/fault"
	"radar/internal/live"
	"radar/internal/live/chaos"
	"radar/internal/sim"
	"radar/internal/substrate"
)

// floorWaitTimeout bounds how long RunFree waits for the fleet's initial
// floor repair before judging starts: objects seed with a single replica,
// so a fresh fleet legitimately spends its first moments below the floor.
const floorWaitTimeout = 30 * time.Second

// Outcome is what one free-running run produced.
type Outcome struct {
	// Results are the load generator's totals in the simulator's schema.
	Results *sim.Results
	// Report is the invariant checker's verdict over the whole run.
	Report *Report
	// Applied are the fault events the chaos controller dealt, in order.
	Applied []fault.Event
}

// RunFree is the one free-running run of a free-running harness: it waits
// for the replica floor, starts the invariant checker, deals the chaos
// schedule (empty for none) against h.Fleet while it drives h.Free for the
// configured wall duration, and judges the failed requests. A schedule
// expands from the seed's fault stream, so it kills the nodes a simulation
// of the same configuration crashes, and the run lasts until all of it is
// dealt. convergence is the budget within
// which a violated bound must heal. The error reports a run that could not
// be carried out, a plan cut short included; violations are in the
// Outcome's Report.
func RunFree(ctx context.Context, h *live.Harness, schedule string, convergence time.Duration) (*Outcome, error) {
	cfg := h.Free.Config()
	var plan []fault.Event
	var latency time.Duration
	var target chaos.Target
	if schedule != "" {
		var err error
		if plan, latency, err = chaos.Plan(schedule, cfg.Sim.Topo, cfg.Sim.Duration, cfg.Sim.Seed); err != nil {
			return nil, err
		}
		ft := chaos.NewFleetTarget(h.Fleet, h.Free.SetLatency)
		defer ft.Close()
		target = ft
	}

	c := newChecker(h.URLs, sim.RedirectorLocs(&cfg.Sim, substrate.Shared(cfg.Sim.Topo).Routes), convergence)
	defer c.client.CloseIdleConnections()
	// Judge steady-state maintenance, not the boot transient.
	if err := c.awaitFloor(ctx, floorWaitTimeout); err != nil {
		return nil, err
	}
	checkCtx, stopCheck := context.WithCancel(context.Background())
	checked := make(chan struct{})
	go func() {
		defer close(checked)
		c.run(checkCtx)
	}()

	// The checker judges until the whole plan is dealt, even when restarts
	// (each waits for fleet readiness) put the controller behind the load.
	ctl := chaos.NewController(target, plan, latency, c)
	chaosDone := make(chan error, 1)
	go func() { chaosDone <- ctl.Run(ctx, time.Now()) }()
	runErr := h.Free.Run(ctx)
	chaosErr := <-chaosDone
	stopCheck()
	<-checked
	if err := errors.Join(runErr, chaosErr); err != nil {
		return nil, err
	}
	if n := len(ctl.Applied()); n < len(plan) {
		return nil, fmt.Errorf("chaos: %d of %d planned events applied: %w", n, len(plan), ctx.Err())
	}

	c.checkFailures(h.Free.Failures())
	total := 0
	for _, rep := range c.censuses() {
		if rep != nil {
			total += rep.TotalReplicas
		}
	}
	return &Outcome{
		Results: h.Free.Results(float64(total) / float64(cfg.Sim.Universe.Count)),
		Report:  c.Report(),
		Applied: ctl.Applied(),
	}, nil
}
