package live

import "time"

// ReadyTimeout bounds how long NewHarness waits for its fleet to report
// ready before giving up.
const ReadyTimeout = 10 * time.Second

// Harness couples a fleet with the driver that replays a workload against
// it — what the facade's live mode, radar-load and the integration tests
// all run. Exactly one of Driver (driver-paced) and Free (free-running) is
// non-nil, keyed by Config.FreeRunning; Driver.Run replays, and
// check.RunFree is the one free-running run. Fleet is the in-process
// loopback fleet the harness owns, nil when it drives an external one.
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
