// Command radar-load replays a scenario's workload against a live fleet
// over real HTTP: the load generator paces the simulator's exact event
// schedule, asks each object's redirector for a 302, follows it to the
// chosen replica host, and reports completions back — collecting the same
// metrics schema as a simulation run.
//
// By default it stands up an in-process loopback fleet (one HTTP listener
// per topology node) and drives it; with -urls it drives an externally
// started fleet of radar-node processes instead, which must have been
// launched with the same scenario and overrides.
//
// With -free-running the fleet owns its clocks: nodes self-schedule their
// control ticks, the generator paces requests in wall time, and instead of
// comparing against the simulator the run is judged by an invariant
// checker (-check) that scrapes the fleet's census and stats. -chaos takes
// the simulator's fault-schedule DSL and deals it for real — SIGKILL-style
// node crashes, control-plane partitions, client-hop latency — against the
// in-process fleet, with crash windows reported to the checker.
//
// Examples:
//
//	radar-load -list
//	radar-load -scenario steady-state-baseline -duration 2m -rps 10
//	radar-load -scenario steady-state-baseline -duration 2m -rps 10 -gate-zero-failed
//	radar-load -scenario steady-state-baseline -urls http://127.0.0.1:8300,http://127.0.0.1:8301,...
//	radar-load -scenario steady-state-baseline -free-running -duration 10s -check
//	radar-load -scenario steady-state-baseline -free-running -duration 15s -chaos "crash:2@5s+3s" -check
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"strings"
	"time"

	"radar/internal/live"
	"radar/internal/live/chaos"
	"radar/internal/live/check"
	"radar/internal/report"
	"radar/internal/routing"
	"radar/internal/scenario"
	"radar/internal/sim"
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
		urls        = flag.String("urls", "", "comma-separated radar-node base URLs (empty = in-process loopback fleet)")
		gateFailed  = flag.Bool("gate-zero-failed", false, "exit non-zero if any request failed or any node crashed")
		freeRunning = flag.Bool("free-running", false, "free-running mode: nodes self-schedule on wall clocks; generator paces in real time")
		chaosSched  = flag.String("chaos", "", "fault-DSL chaos schedule to deal against the fleet (implies -check; needs -free-running, in-process fleet)")
		doCheck     = flag.Bool("check", false, "scrape the fleet and assert protocol invariants; exit non-zero on violations (needs -free-running)")
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
	if (*chaosSched != "" || *doCheck) && !*freeRunning {
		return fmt.Errorf("-chaos and -check need -free-running (driver-paced replay is verified against the simulator instead)")
	}

	cfg, err := live.ScenarioConfig(*name, *duration, *rps, *seed, *freeRunning)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var fleet []string // empty: an in-process loopback fleet
	if *urls != "" {
		fleet = strings.Split(*urls, ",")
	}
	if *freeRunning {
		return runFree(ctx, cfg, fleet, *chaosSched, *doCheck || *chaosSched != "", *convergence, *gateFailed)
	}

	h, err := live.NewHarness(cfg, fleet)
	if err != nil {
		return err
	}
	defer h.Close()
	start := time.Now()
	res, err := h.Run(ctx)
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

// floorWaitTimeout bounds how long runFree waits for the fleet's initial
// floor repair before starting the invariant checker: objects seed with a
// single replica, so a fresh fleet legitimately spends its first moments
// below the replica floor.
const floorWaitTimeout = 30 * time.Second

// runFree executes a free-running run: wall-clock load generation, an
// optional chaos schedule against the in-process fleet, and an optional
// invariant checker whose violations fail the run.
func runFree(ctx context.Context, cfg live.Config, urls []string, schedule string, doCheck bool, convergence time.Duration, gate bool) error {
	cfg = cfg.Normalized()
	wall := cfg.Sim.Duration
	if schedule != "" && len(urls) > 0 {
		return fmt.Errorf("-chaos needs the in-process fleet (radar-load must own the node lifecycles to kill them); drop -urls")
	}
	h, err := live.NewHarness(cfg, urls)
	if err != nil {
		return err
	}
	defer h.Close()
	free, fleetURLs := h.Free, h.URLs
	var target *chaos.FleetTarget
	if schedule != "" {
		target = chaos.NewFleetTarget(h.Fleet, free.SetLatency)
		defer target.Close()
	}

	redirectors := sim.RedirectorLocs(&cfg.Sim, routing.New(cfg.Sim.Topo))

	var checker *check.Checker
	stopCheck := func() {}
	if doCheck {
		// Judge steady-state maintenance, not the boot transient: wait for
		// the self-scheduled placement passes to finish the initial floor
		// repair before the first scrape.
		if err := check.AwaitFloor(ctx, fleetURLs, redirectors, floorWaitTimeout); err != nil {
			return err
		}
		checker = check.New(check.Config{
			URLs:        fleetURLs,
			Redirectors: redirectors,
			Convergence: convergence,
		})
		checkCtx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			checker.Run(checkCtx)
		}()
		stopCheck = func() { cancel(); <-done }
	}

	chaosDone := make(chan error, 1)
	var ctl *chaos.Controller
	if schedule != "" {
		plan, err := chaos.Plan(schedule, cfg.Sim.Topo, wall, rand.New(rand.NewSource(cfg.Sim.Seed)))
		if err != nil {
			return err
		}
		var obs chaos.Observer
		if checker != nil {
			obs = checker
		}
		ctl = chaos.NewController(target, plan, obs)
		go func() { chaosDone <- ctl.Run(ctx, time.Now()) }()
	} else {
		chaosDone <- nil
	}

	start := time.Now()
	runErr := free.Run(ctx, wall)
	wallTook := time.Since(start).Round(time.Millisecond)
	chaosErr := <-chaosDone
	stopCheck()
	if runErr != nil {
		return runErr
	}
	if chaosErr != nil {
		return fmt.Errorf("chaos: %w", chaosErr)
	}

	res := free.Results(free.Census())
	if err := report.Summary(res).Render(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("\nfree run: %d served, %d failed, %d timed out (wall time %v)\n",
		res.TotalServed, res.FailedRequests, res.TimedOutRequests, wallTook)
	if ctl != nil {
		fmt.Printf("chaos: %d actions applied\n", len(ctl.Applied()))
		for _, a := range ctl.Applied() {
			fmt.Printf("  %s\n", a)
		}
	}

	if checker != nil {
		checker.CheckFailures(free.Failures())
		rep := checker.Report()
		fmt.Printf("invariants: %s\n", rep)
		if !rep.OK() {
			return fmt.Errorf("invariant check: %d violations", len(rep.Violations))
		}
	}
	if gate && res.FailedRequests > 0 {
		return fmt.Errorf("gate: %d failed requests (want zero)", res.FailedRequests)
	}
	return nil
}
