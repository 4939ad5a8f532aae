package live

import (
	"fmt"
	"time"

	"radar/internal/routing"
	"radar/internal/scenario"
	"radar/internal/server"
	"radar/internal/sim"
	"radar/internal/substrate"
	"radar/internal/topology"
)

// Config describes one live fleet: the simulation configuration, embedded
// whole (the same sim.Config drives the simulator and the fleet, which lets
// the equivalence test hand one value to both; its Ctrl tunes every node's
// RPC client), plus the live-only knobs, FreeRunning and FreeRun.
type Config struct {
	// Sim is the run the fleet mirrors: topology, object universe,
	// protocol parameters, server model, request rates, intervals, policy,
	// redirector count, duration. A nil Sim.Topo selects the UUNET
	// backbone, like the simulator.
	Sim sim.Config

	// FreeRunning switches the fleet from driver-paced to self-scheduled
	// operation: nodes own wall-clock timers for their measurement and
	// placement ticks, virtual time is wall time since node
	// start, and peer handlers answer busy (503, retried by the caller)
	// rather than block when a concurrent placement pass holds the node.
	// Verification shifts from sequence equality to invariants (package
	// live/check); driver-paced replay of the same Config is untouched.
	FreeRunning bool

	// FreeRun tunes the free-running timers; zero fields take defaults
	// derived from the simulation intervals.
	FreeRun FreeRun
}

// FreeRun groups the free-running mode's wall-clock timer periods. In
// free-running mode virtual time is wall time, so the defaults map the
// simulation's virtual intervals one-to-one onto real ones.
type FreeRun struct {
	// Measurement is the load-measurement interval (default:
	// server.MeasurementInterval).
	Measurement time.Duration
	// Placement is the placement-pass interval (default:
	// Sim.PlacementInterval).
	Placement time.Duration
	// Jitter is the fraction of each period by which ticks are randomly
	// advanced or delayed, in (0,1); zero selects DefaultFreeRunJitter. It
	// keeps a fleet started in the same instant from phase-locking its
	// placement passes.
	Jitter float64
}

// Free-running defaults.
const (
	DefaultRetryBudget   = 8
	DefaultFreeRunJitter = 0.1
)

// Normalized returns the configuration with every default resolved — the
// UUNET topology for a nil Topo, the free-running timers — which is the
// exact configuration a fleet, driver, or checker built from c will run
// with.
func (c Config) Normalized() Config {
	if c.Sim.Topo == nil {
		c.Sim.Topo = substrate.UUNET().Topo
	}
	if c.FreeRunning {
		if c.FreeRun.Measurement == 0 {
			c.FreeRun.Measurement = server.MeasurementInterval
		}
		if c.FreeRun.Placement == 0 {
			c.FreeRun.Placement = c.Sim.PlacementInterval
		}
		if c.FreeRun.Jitter == 0 {
			c.FreeRun.Jitter = DefaultFreeRunJitter
		}
	}
	return c
}

// Validate rejects configurations the live fleet cannot run. Live mode
// deliberately supports the simulator's core surface — the paper's
// protocol over a real transport — and refuses the simulation-only
// subsystems (the ExternalFleet rows of sim.Refusals).
func (c Config) Validate() error {
	c = c.Normalized()
	if err := c.Sim.Validate(); err != nil {
		return err
	}
	if c.FreeRun.Measurement < 0 || c.FreeRun.Placement < 0 {
		return fmt.Errorf("live: negative free-running interval")
	}
	if c.FreeRun.Jitter < 0 || c.FreeRun.Jitter >= 1 {
		return fmt.Errorf("live: free-running jitter %v outside [0,1)", c.FreeRun.Jitter)
	}
	if r := sim.MatchRefusal(c.Sim.Features() | sim.ExternalFleet); r != nil {
		return fmt.Errorf("live: %s", r.Reason)
	}
	return nil
}

// ScenarioConfig resolves a named scenario into a fleet configuration with
// the command-line overrides applied to its Spec (zero keeps the
// scenario's value), so an overridden seed seeds the generators too.
// radar-load and radar-node both resolve through it, so a driver and an
// externally launched fleet agree on every parameter.
func ScenarioConfig(name string, duration time.Duration, rps float64, seed int64, freeRunning bool) (Config, error) {
	sc, ok := scenario.ByName(name)
	if !ok {
		return Config{}, fmt.Errorf("unknown scenario %q", name)
	}
	sp, err := sc.Spec()
	if err != nil {
		return Config{}, err
	}
	if duration > 0 {
		sp.Duration = duration
	}
	if rps > 0 {
		sp.RPS = rps
	}
	if seed != 0 {
		sp.Seed = seed
	}
	simCfg, err := sp.Config()
	if err != nil {
		return Config{}, fmt.Errorf("scenario %s: %w", name, err)
	}
	cfg := Config{Sim: simCfg, FreeRunning: freeRunning}
	return cfg, cfg.Validate()
}

// RedirectorLocations is the simulator's redirector placement
// (sim.RedirectorLocs) for a fleet configured with k redirectors.
func RedirectorLocations(routes *routing.Table, k int) []topology.NodeID {
	return sim.RedirectorLocs(&sim.Config{NumRedirectors: k}, routes)
}
