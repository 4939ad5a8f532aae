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
// loopback fleet the harness owns.
type Harness struct {
	Fleet  *Fleet
	URLs   []string // base URL per node ID
	Driver *Driver
	Free   *FreeDriver
}

// NewHarness builds a loopback fleet for cfg, waits for it to be ready and
// attaches the mode's driver. The caller owns Close.
func NewHarness(cfg Config) (*Harness, error) {
	f, err := NewFleet(cfg)
	if err != nil {
		return nil, err
	}
	h := &Harness{Fleet: f, URLs: f.URLs()}
	cfg = f.Config()
	if err := f.WaitReady(ReadyTimeout); err != nil {
		h.Close()
		return nil, err
	}
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

// Close releases the driver's connections and tears the fleet down.
func (h *Harness) Close() {
	if h.Driver != nil {
		h.Driver.Close()
	}
	h.Fleet.Close()
}
