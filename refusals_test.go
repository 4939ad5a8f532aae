package radar

import (
	"errors"
	"strings"
	"testing"

	"radar/internal/live"
	"radar/internal/sim"
)

// TestRefusalTableOneVerdict walks every row of sim.Refusals and checks
// the facade and the engine refuse the combination alike: build answers a
// ConfigError carrying the row's reason on the row's field, and the
// configuration build assembles is refused by the engine's own Validate —
// sim.Config for the sharded-engine rows, live.Config for the
// external-fleet rows — for the same reason. The facade can spell every
// feature a row names.
func TestRefusalTableOneVerdict(t *testing.T) {
	// switches turns each feature on in a facade Config.
	switches := map[sim.Feature]func(*Config){
		sim.Sharding:       func(c *Config) { c.Shards = 4 },
		sim.LinkContention: func(c *Config) { c.LinkContention = true },
		sim.FaultInjection: func(c *Config) { c.Faults.FaultSchedule = "crash:9@3m+5m" },
		sim.ExternalFleet:  func(c *Config) { c.Live.LiveMode = true },
	}
	if len(sim.Refusals) != 3 {
		t.Fatalf("sim.Refusals has %d rows, want 3", len(sim.Refusals))
	}
	for _, row := range sim.Refusals {
		t.Run(row.Reason, func(t *testing.T) {
			cfg := DefaultConfig(Uniform)
			cfg.Objects = 106
			for bit := sim.Feature(1); bit <= sim.ExternalFleet; bit <<= 1 {
				if row.With&bit != 0 {
					switches[bit](&cfg)
				}
			}
			field := "Shards"
			if cfg.Live.LiveMode {
				field = "Live.LiveMode"
			}
			var ce *ConfigError
			if _, err := cfg.build(); !errors.Is(err, ErrBadConfig) || !errors.As(err, &ce) || ce.Reason != row.Reason || ce.Field != field {
				t.Errorf("facade build = %v, want ConfigError on %s with reason %q", err, field, row.Reason)
			}
			// The engine's verdict on the configuration build assembles:
			// the Spec's half builds (no row is Spec-only), then the two
			// switches a Spec does not carry go on as build puts them.
			half := cfg
			half.Shards, half.Live.LiveMode = 0, false
			simCfg, err := half.build()
			if err != nil {
				t.Fatal(err)
			}
			simCfg.Shards = cfg.Shards
			want := row.With &^ sim.ExternalFleet
			if got := simCfg.Features(); got != want {
				t.Fatalf("engine features = %#b, want %#b", got, want)
			}
			if cfg.Live.LiveMode {
				err = live.Config{Sim: *simCfg}.Validate()
			} else {
				err = simCfg.Validate()
			}
			if err == nil || !strings.HasSuffix(err.Error(), row.Reason) {
				t.Errorf("engine Validate = %v, want reason %q", err, row.Reason)
			}
		})
	}
}
