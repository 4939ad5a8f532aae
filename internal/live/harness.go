package live

import (
	"context"
	"fmt"
	"time"

	"radar/internal/sim"
	"radar/internal/topology"
)

// ReadyTimeout bounds how long NewHarness waits for its fleet to report
// ready before giving up.
const ReadyTimeout = 10 * time.Second

// Harness couples a fleet with the driver that replays a workload against
// it — what the facade's live mode, radar-load and the integration tests
// all run. Exactly one of Driver (driver-paced) and Free (free-running) is
// non-nil, keyed by Config.FreeRunning. Fleet is the in-process loopback
// fleet the harness owns, nil when it drives an external one.
type Harness struct {
	Fleet  *Fleet
	URLs   []string // base URL per node ID
	Driver *Driver
	Free   *FreeDriver
}

// NewHarness attaches the mode's driver to the fleet reachable at urls, or,
// given none, to a loopback fleet it builds for cfg and waits ready. The
// caller owns Close.
func NewHarness(cfg Config, urls []string) (*Harness, error) {
	h := &Harness{URLs: urls}
	if len(urls) == 0 {
		f, err := NewFleet(cfg)
		if err != nil {
			return nil, err
		}
		h.Fleet, h.URLs, cfg = f, f.URLs(), f.Config()
		if err := f.WaitReady(ReadyTimeout); err != nil {
			h.Close()
			return nil, err
		}
	}
	var err error
	if cfg.FreeRunning {
		h.Free, err = NewFreeDriver(cfg, h.URLs)
	} else {
		h.Driver, err = NewDriver(cfg, h.URLs)
	}
	if err != nil {
		h.Close()
		return nil, err
	}
	return h, nil
}

// Close releases the driver's connections and tears an owned fleet down.
func (h *Harness) Close() {
	if h.Driver != nil {
		h.Driver.Close()
	}
	if h.Fleet != nil {
		h.Fleet.Close()
	}
}

// Kill crashes node i mid-replay: the node's listener closes and the
// driver (in driver-paced mode) marks it down, so subsequent redirects
// route around it — what an external health check would conclude.
// Free-running fleets spread the mark via the chaos controller instead.
func (h *Harness) Kill(i topology.NodeID) error {
	if err := h.Fleet.Kill(i); err != nil {
		return fmt.Errorf("live: killing node %d: %w", i, err)
	}
	if h.Driver != nil {
		h.Driver.MarkDown(i)
	}
	return nil
}

// Run replays the configured workload against the fleet and returns the
// run's results in the simulator's schema. A free-running fleet has no
// virtual-time replay: the driver generates load for the configured
// duration of wall time and reports the real counters plus a final census.
func (h *Harness) Run(ctx context.Context) (*sim.Results, error) {
	if h.Free == nil {
		return h.Driver.Run(ctx)
	}
	if err := h.Free.Run(ctx, h.Free.cfg.Sim.Duration); err != nil {
		return nil, err
	}
	return h.Free.Results(h.Free.Census()), nil
}
