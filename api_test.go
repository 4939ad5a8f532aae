// External tests for the facade's error contract and context entry
// points: sentinel errors must match through errors.Is from outside the
// package, and cancellation must interrupt long runs promptly.
package radar_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"radar"
)

// quickCfg returns a fast, scaled-down configuration.
func quickCfg(w radar.Workload) radar.Config {
	cfg := radar.DefaultConfig(w)
	cfg.Objects = 1000
	cfg.Duration = 4 * time.Minute
	return cfg
}

// badField reports whether err is a *radar.ConfigError on field that also
// matches the ErrBadConfig class.
func badField(err error, field string) bool {
	var ce *radar.ConfigError
	return errors.Is(err, radar.ErrBadConfig) && errors.As(err, &ce) && ce.Field == field
}

func TestSentinelErrorsMatchable(t *testing.T) {
	is := func(want error) func(error) bool {
		return func(err error) bool { return errors.Is(err, want) }
	}
	field := func(name string) func(error) bool {
		return func(err error) bool { return badField(err, name) }
	}
	cases := []struct {
		name   string
		mutate func(*radar.Config)
		match  func(error) bool
	}{
		{"unknown workload", func(c *radar.Config) { c.Workload = "no-such-workload" }, is(radar.ErrUnknownWorkload)},
		{"unknown switch target", func(c *radar.Config) { c.SwitchTo = "no-such-workload" }, is(radar.ErrUnknownWorkload)},
		{"unknown policy", func(c *radar.Config) { c.Placement.Policy = "no-such-policy" }, is(radar.ErrUnknownPolicy)},
		{"unknown consistency", func(c *radar.Config) { c.Consistency = "no-such-regime" }, is(radar.ErrUnknownConsistency)},
		{"bad fault schedule", func(c *radar.Config) { c.Faults.FaultSchedule = "drop:1.5" }, is(radar.ErrBadFaultSchedule)},
		{"negative replica floor", func(c *radar.Config) { c.Faults.ReplicaFloor = -1 }, field("Faults.ReplicaFloor")},
		{"availability weight above 1", func(c *radar.Config) { c.Placement.AvailabilityWeight = 1.5 }, field("Placement.AvailabilityWeight")},
		{"negative availability weight", func(c *radar.Config) { c.Placement.AvailabilityWeight = -0.1 }, field("Placement.AvailabilityWeight")},
		{"negative ctrl retries", func(c *radar.Config) { c.Ctrl.CtrlRetries = -2 }, field("Ctrl.CtrlRetries")},
		{"negative ctrl timeout", func(c *radar.Config) { c.Ctrl.CtrlTimeout = -time.Second }, field("Ctrl.CtrlTimeout")},
		{"negative duration", func(c *radar.Config) { c.Duration = -time.Second }, field("Duration")},
		{"negative redirector count", func(c *radar.Config) { c.NumRedirectors = -1 }, field("NumRedirectors")},
		{"negative switch time", func(c *radar.Config) { c.SwitchAt = -time.Second }, field("SwitchAt")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := quickCfg(radar.Zipf)
			tc.mutate(&cfg)
			if err := cfg.Validate(); !tc.match(err) {
				t.Errorf("Validate() = %v, not the expected error", err)
			}
			if _, err := radar.Run(cfg); !tc.match(err) {
				t.Errorf("Run() = %v, not the expected error", err)
			}
		})
	}
}

func TestValidateZeroValueConfig(t *testing.T) {
	var cfg radar.Config
	err := cfg.Validate()
	if err == nil {
		t.Fatal("zero-value Config validated")
	}
	if !errors.Is(err, radar.ErrUnknownWorkload) {
		t.Errorf("Validate() = %v, want errors.Is(err, ErrUnknownWorkload)", err)
	}
	if _, err := radar.Run(cfg); !errors.Is(err, radar.ErrUnknownWorkload) {
		t.Errorf("Run() = %v, want errors.Is(err, ErrUnknownWorkload)", err)
	}
}

func TestValidateAcceptsDefaults(t *testing.T) {
	for _, w := range []radar.Workload{radar.Zipf, radar.HotSites, radar.HotPages, radar.Regional, radar.Uniform} {
		if err := radar.DefaultConfig(w).Validate(); err != nil {
			t.Errorf("DefaultConfig(%q).Validate() = %v", w, err)
		}
	}
}

func TestRunSeedsNoSeeds(t *testing.T) {
	if _, err := radar.RunSeeds(quickCfg(radar.Uniform), nil, 0); !errors.Is(err, radar.ErrNoSeeds) {
		t.Errorf("RunSeeds(nil seeds) = %v, want errors.Is(err, ErrNoSeeds)", err)
	}
	if _, err := radar.RunSeeds(quickCfg(radar.Uniform), []int64{}, 0); !errors.Is(err, radar.ErrNoSeeds) {
		t.Errorf("RunSeeds(empty seeds) = %v, want errors.Is(err, ErrNoSeeds)", err)
	}
}

func TestRunSeedsSharedTraceWriter(t *testing.T) {
	cfg := quickCfg(radar.Uniform)
	cfg.TraceWriter = &strings.Builder{}
	_, err := radar.RunSeeds(cfg, []int64{1, 2}, 2)
	if !errors.Is(err, radar.ErrTraceWriterShared) {
		t.Errorf("RunSeeds(2 seeds, shared writer) = %v, want errors.Is(err, ErrTraceWriterShared)", err)
	}
	// A single seed does not share the writer, so it is allowed.
	cfg.Duration = 2 * time.Minute
	if _, err := radar.RunSeeds(cfg, []int64{1}, 1); err != nil {
		t.Errorf("RunSeeds(1 seed, writer) = %v, want success", err)
	}
}

func TestRunContextCancellation(t *testing.T) {
	// Full-scale 40-minute-horizon run: seconds of wall time if allowed
	// to finish. Cancel shortly after it starts and require it to return
	// well under a second later.
	cfg := radar.DefaultConfig(radar.Zipf)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	done := make(chan error, 1)
	go func() {
		res, err := radar.RunContext(ctx, cfg)
		if res != nil {
			err = errors.New("canceled run returned results")
		}
		done <- err
	}()

	time.Sleep(50 * time.Millisecond)
	start := time.Now()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("RunContext = %v, want errors.Is(err, context.Canceled)", err)
		}
		if wait := time.Since(start); wait > time.Second {
			t.Errorf("cancellation took %v, want well under a second", wait)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunContext did not return after cancellation")
	}
}

func TestRunContextAlreadyCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := radar.RunContext(ctx, quickCfg(radar.Uniform))
	if !errors.Is(err, context.Canceled) {
		t.Errorf("RunContext(canceled ctx) = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Error("canceled run returned results")
	}
}

func TestRunSeedsContextCancellation(t *testing.T) {
	cfg := radar.DefaultConfig(radar.Zipf) // 40-minute horizon per seed
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	done := make(chan error, 1)
	go func() {
		_, err := radar.RunSeedsContext(ctx, cfg, []int64{1, 2, 3, 4}, 2)
		done <- err
	}()

	time.Sleep(50 * time.Millisecond)
	start := time.Now()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("RunSeedsContext = %v, want errors.Is(err, context.Canceled)", err)
		}
		if wait := time.Since(start); wait > 2*time.Second {
			t.Errorf("cancellation took %v, want prompt return", wait)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunSeedsContext did not return after cancellation")
	}
}

func TestRunLossyControlPlane(t *testing.T) {
	cfg := quickCfg(radar.Zipf)
	cfg.Faults.FaultSchedule = "drop:0.2; dup:0.05; cdelay:20ms"
	cfg.Ctrl.CtrlRetries = 2
	cfg.Ctrl.CtrlTimeout = 500 * time.Millisecond
	res, err := radar.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Summary
	if !s.CtrlEnabled {
		t.Fatal("message-fault schedule did not arm the control plane")
	}
	if s.CtrlRPCAttempts == 0 || s.CtrlRPCRetries == 0 {
		t.Errorf("no control RPC activity surfaced: %+v", s)
	}
	if s.ReconcileRuns == 0 {
		t.Error("no reconciliation runs surfaced")
	}
	// A reliable run keeps every control-plane field zero.
	clean, err := radar.Run(quickCfg(radar.Zipf))
	if err != nil {
		t.Fatal(err)
	}
	cs := clean.Summary
	if cs.CtrlEnabled || cs.CtrlRPCAttempts != 0 || cs.DeferredMoves != 0 || cs.ReconcileRuns != 0 {
		t.Errorf("reliable run leaked control-plane metrics: %+v", cs)
	}
}

func TestRunContextMatchesRun(t *testing.T) {
	cfg := quickCfg(radar.Uniform)
	cfg.Duration = 2 * time.Minute
	a, err := radar.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := radar.RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Summary != b.Summary {
		t.Errorf("RunContext diverged from Run:\n%+v\n%+v", a.Summary, b.Summary)
	}
}
