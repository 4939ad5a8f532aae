package radar_test

import (
	"errors"
	"io"
	"testing"
	"time"

	"radar"
)

// TestLiveGroupValidation: live mode's incompatibilities with
// simulation-only subsystems are caught at Validate time as ConfigErrors.
func TestLiveGroupValidation(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*radar.Config)
		refused bool
		field   string // the refusing field; Live.LiveMode when empty
	}{
		// A live node is the simulator's node assembly: it carries a
		// storage stack like a simulated host does.
		{"storage stack", func(c *radar.Config) { c.Storage.Store = "cache(mem:64,disk:5ms)" }, false, ""},
		// A placement pass reports its copies with its decisions, so the
		// loop charges the links in the simulation's order.
		{"link contention", func(c *radar.Config) { c.LinkContention = true }, false, ""},
		{"fault schedule", func(c *radar.Config) { c.Faults.FaultSchedule = "crash:9@3m+5m" }, true, ""},
		// Every node derives the §5 category table from the shared
		// configuration and gates its own placement passes with it.
		{"mixed consistency", func(c *radar.Config) { c.Consistency = radar.ConsistencyMixed }, false, ""},
		{"sharded engine", func(c *radar.Config) { c.Shards = 4 }, true, ""},
		// A driver-paced pass replays its decisions into the loop, which
		// forwards them to the writer; a free-running fleet has no loop.
		{"trace writer", func(c *radar.Config) { c.TraceWriter = io.Discard }, false, ""},
		{"free-running trace writer", func(c *radar.Config) {
			c.Live.LiveFreeRunning, c.TraceWriter = true, io.Discard
		}, true, "Live.LiveFreeRunning"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := radar.DefaultConfig(radar.Zipf)
			cfg.Live.LiveMode = true
			tc.mutate(&cfg)
			err := cfg.Validate()
			if !tc.refused {
				if err != nil {
					t.Fatalf("live mode with %s rejected: %v", tc.name, err)
				}
				return
			}
			if !errors.Is(err, radar.ErrBadConfig) {
				t.Fatalf("err = %v, want ErrBadConfig", err)
			}
			if tc.field == "" {
				tc.field = "Live.LiveMode"
			}
			var ce *radar.ConfigError
			if !errors.As(err, &ce) || ce.Field != tc.field {
				t.Fatalf("err = %v, want ConfigError on %s", err, tc.field)
			}
		})
	}
}

// TestLiveFreeRunningNeedsLiveMode: free-running is a refinement of live
// mode, not a standalone switch.
func TestLiveFreeRunningNeedsLiveMode(t *testing.T) {
	cfg := radar.DefaultConfig(radar.Zipf)
	cfg.Live.LiveFreeRunning = true
	if err := cfg.Validate(); !badField(err, "Live.LiveFreeRunning") {
		t.Fatalf("LiveFreeRunning without LiveMode: err = %v, want ConfigError on Live.LiveFreeRunning", err)
	}
	cfg.Live.LiveMode = true
	if err := cfg.Validate(); err != nil {
		t.Fatalf("valid free-running config rejected: %v", err)
	}
}

// TestRunSeedsRejectsLiveMode: live mode runs one fleet at a time.
func TestRunSeedsRejectsLiveMode(t *testing.T) {
	cfg := radar.DefaultConfig(radar.Uniform)
	cfg.Live.LiveMode = true
	if _, err := radar.RunSeeds(cfg, []int64{1, 2}, 2); !errors.Is(err, radar.ErrBadConfig) {
		t.Errorf("RunSeeds with LiveMode: err = %v, want ErrBadConfig", err)
	}
}

// TestRunLiveMode: the facade stands up a loopback fleet of real HTTP
// servers over the full backbone, replays the workload, and reports the
// simulated run's Summary with no failed requests. Link contention is on:
// the loop prices it from what the fleet reports, like everything else.
func TestRunLiveMode(t *testing.T) {
	if testing.Short() {
		t.Skip("live fleet replay over 53 loopback listeners; skipped in -short")
	}
	cfg := radar.DefaultConfig(radar.Zipf)
	cfg.Objects = 106
	cfg.Duration = 15 * time.Second
	cfg.LinkContention = true
	want, err := radar.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Live.LiveMode = true
	res, err := radar.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Summary
	if s != want.Summary {
		t.Errorf("live Summary differs from the simulated one:\n  live: %+v\n  sim:  %+v", s, want.Summary)
	}
	if s.TotalServed == 0 {
		t.Error("live fleet served no requests")
	}
	if s.FailedRequests != 0 || s.HostFailures != 0 {
		t.Errorf("healthy live fleet reported %d failed requests, %d crashes", s.FailedRequests, s.HostFailures)
	}
	if s.TimedOutRequests != 0 {
		t.Errorf("%d timed-out requests at nominal load", s.TimedOutRequests)
	}
}

// TestRunLiveFreeRunning: the facade's free-running path stands up the
// fleet on wall clocks and generates real-time load; Duration is wall
// time, so a short run finishes fast even over the full backbone.
func TestRunLiveFreeRunning(t *testing.T) {
	if testing.Short() {
		t.Skip("free-running fleet over 53 loopback listeners; skipped in -short")
	}
	cfg := radar.DefaultConfig(radar.Zipf)
	cfg.Objects = 106
	cfg.Duration = 2 * time.Second
	cfg.Live.LiveMode = true
	cfg.Live.LiveFreeRunning = true
	res, err := radar.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Summary
	if s.TotalServed == 0 {
		t.Error("free-running fleet served no requests")
	}
	if s.FailedRequests != 0 {
		t.Errorf("healthy free-running fleet reported %d failed requests", s.FailedRequests)
	}
}

// TestConsistencyMixedOnEveryEngine: the §5 category gate is a table every
// fleet and engine derives from the shared configuration, so
// ConsistencyMixed validates and runs sharded and live, and both report the
// serial simulation's Summary.
func TestConsistencyMixedOnEveryEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("live fleet replay over 53 loopback listeners; skipped in -short")
	}
	run := func(cfg radar.Config) radar.Summary {
		t.Helper()
		if err := cfg.Validate(); err != nil {
			t.Fatalf("Validate: %v", err)
		}
		res, err := radar.Run(cfg)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res.Summary
	}
	cfg := radar.DefaultConfig(radar.HotPages)
	cfg.Objects = 1000
	cfg.Duration = 4 * time.Minute
	ungated := run(cfg)
	cfg.Consistency = radar.ConsistencyMixed
	serial := run(cfg)
	if serial == ungated {
		t.Fatal("the category gate changed nothing in the serial run; the comparison below pins nothing")
	}
	cfg.Shards = 4
	if sharded := run(cfg); sharded != serial {
		t.Errorf("sharded Summary differs from the serial one:\n  sharded: %+v\n  serial:  %+v", sharded, serial)
	}

	cfg = radar.DefaultConfig(radar.Zipf)
	cfg.Objects = 106
	cfg.Duration = 15 * time.Second
	cfg.Consistency = radar.ConsistencyMixed
	serial = run(cfg)
	cfg.Live.LiveMode = true
	if live := run(cfg); live != serial {
		t.Errorf("live Summary differs from the simulated one:\n  live: %+v\n  sim:  %+v", live, serial)
	}
}
