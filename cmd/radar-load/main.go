// Command radar-load replays a scenario's workload against a live fleet
// over real HTTP: the load generator paces the simulator's exact event
// schedule, asks each object's redirector for a 302, follows it to the
// chosen replica host, and reports completions back — collecting the same
// metrics schema as a simulation run. The fleet is in-process: one
// loopback HTTP listener per topology node.
//
// With -free-running the fleet owns its clocks: nodes self-schedule their
// control ticks, the generator paces requests in wall time, and instead of
// comparing against the simulator the run is judged by an invariant
// checker that scrapes the fleet's census and stats; a violation fails the
// run. -chaos takes the simulator's fault-schedule DSL and deals it for
// real — SIGKILL-style node crashes, control-plane partitions, client-hop
// latency — against the in-process fleet, with crash windows reported to
// the checker. Stochastic clauses draw from the seed's fault stream, so
// the nodes killed are the ones a simulation of the scenario crashes.
//
// Examples:
//
//	radar-load -list
//	radar-load -scenario steady-state-baseline -duration 2m -rps 10
//	radar-load -scenario steady-state-baseline -duration 2m -rps 10 -gate-zero-failed
//	radar-load -scenario steady-state-baseline -free-running -duration 10s
//	radar-load -scenario steady-state-baseline -free-running -duration 15s -chaos "crash:2@5s+3s"
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"radar/internal/live"
	"radar/internal/live/check"
	"radar/internal/report"
	"radar/internal/scenario"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "radar-load:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name        = flag.String("scenario", "steady-state-baseline", "scenario to replay (see -list)")
		list        = flag.Bool("list", false, "list the scenario corpus and exit")
		duration    = flag.Duration("duration", 0, "override the scenario's virtual duration (0 = keep); wall-clock in free-running mode")
		rps         = flag.Float64("rps", 0, "override the per-gateway request rate (0 = keep)")
		seed        = flag.Int64("seed", 0, "override the scenario seed (0 = keep)")
		gateFailed  = flag.Bool("gate-zero-failed", false, "exit non-zero if any request failed or any node crashed")
		freeRunning = flag.Bool("free-running", false, "free-running mode: nodes self-schedule on wall clocks; generator paces in real time")
		chaosSched  = flag.String("chaos", "", "fault-DSL chaos schedule to deal against the fleet (needs -free-running)")
		convergence = flag.Duration("convergence", 5*time.Second, "invariant checker's convergence budget: how long a bound may stay violated before it counts")
	)
	flag.Parse()

	if *list {
		for _, n := range scenario.Names() {
			sc, _ := scenario.ByName(n)
			fmt.Printf("%-40s %s\n", n, sc.Description)
		}
		return nil
	}
	if *chaosSched != "" && !*freeRunning {
		return fmt.Errorf("-chaos needs -free-running (driver-paced replay is verified against the simulator instead)")
	}

	cfg, err := live.ScenarioConfig(*name, *duration, *rps, *seed, *freeRunning)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	h, err := live.NewHarness(cfg)
	if err != nil {
		return err
	}
	defer h.Close()
	if *freeRunning {
		return runFree(ctx, h, *chaosSched, *convergence, *gateFailed)
	}
	start := time.Now()
	res, err := h.Driver.Run(ctx)
	if err != nil {
		return err
	}
	wall := time.Since(start).Round(time.Millisecond)

	if err := report.Summary(res).Render(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("\nlive replay: %d served, %d failed, %d dropped choices, %d timed out, %d crashes (wall time %v)\n",
		res.TotalServed, res.FailedRequests, res.DroppedChoices, res.TimedOutRequests, res.Failures, wall)

	if *gateFailed {
		if res.FailedRequests > 0 || res.DroppedChoices > 0 || res.Failures > 0 {
			return fmt.Errorf("gate: %d failed requests, %d dropped choices, %d crashes (want all zero)",
				res.FailedRequests, res.DroppedChoices, res.Failures)
		}
		fmt.Println("gate: zero failed requests")
	}
	return nil
}

// runFree runs the free-running harness through the one free-running run,
// prints what it served, the chaos it dealt and the checker's verdict, and
// fails on a violation.
func runFree(ctx context.Context, h *live.Harness, schedule string, convergence time.Duration, gate bool) error {
	start := time.Now()
	out, err := check.RunFree(ctx, h, schedule, convergence)
	if err != nil {
		return err
	}
	wall := time.Since(start).Round(time.Millisecond)

	res := out.Results
	if err := report.Summary(res).Render(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("\nfree run: %d served, %d failed, %d timed out (wall time %v)\n",
		res.TotalServed, res.FailedRequests, res.TimedOutRequests, wall)
	if schedule != "" {
		fmt.Printf("chaos: %d events applied\n", len(out.Applied))
		for _, a := range out.Applied {
			fmt.Printf("  %s\n", a)
		}
	}
	fmt.Printf("invariants: %s\n", out.Report)
	if !out.Report.OK() {
		return fmt.Errorf("invariant check: %d violations", len(out.Report.Violations))
	}
	if gate && res.FailedRequests > 0 {
		return fmt.Errorf("gate: %d failed requests (want zero)", res.FailedRequests)
	}
	return nil
}
