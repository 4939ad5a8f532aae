package radar

import (
	"errors"
	"strings"
	"testing"

	"radar/internal/live"
	"radar/internal/sim"
)

// TestRefusalTableOneVerdict walks every row of sim.Refusals the facade
// can spell and checks the facade and the engine refuse the combination
// alike: the facade's Validate answers a ConfigError carrying the row's
// reason, and the configuration it would build is refused by the engine's
// own Validate — sim.Config for the sharded-engine rows, live.Config for
// the external-fleet rows — for the same reason. Rows over switches the
// facade does not expose (host weights, seeding modes) are checked on the
// engine side alone.
func TestRefusalTableOneVerdict(t *testing.T) {
	// switches turns each feature on in a facade Config.
	switches := map[sim.Feature]func(*Config){
		sim.Sharding:           func(c *Config) { c.Shards = 4 },
		sim.LinkContention:     func(c *Config) { c.LinkContention = true },
		sim.ConsistencyUpdates: func(c *Config) { c.Consistency = ConsistencyMixed },
		sim.FaultInjection:     func(c *Config) { c.FaultSchedule = "crash:9@3m+5m" },
		sim.StoreStack:         func(c *Config) { c.Store = "cache(mem:64,disk:5ms)" },
		sim.ExternalFleet:      func(c *Config) { c.LiveMode = true },
	}
	// engineOnly turns on what the facade cannot.
	engineOnly := map[sim.Feature]func(*sim.Config){
		sim.HostWeights: func(c *sim.Config) {
			c.HostWeights = make([]float64, c.Topo.NumNodes())
			for i := range c.HostWeights {
				c.HostWeights[i] = 1
			}
		},
		sim.AltSeeding: func(c *sim.Config) { c.ReplicateEverywhere = true },
	}
	for _, row := range sim.Refusals {
		t.Run(row.Reason, func(t *testing.T) {
			cfg := DefaultConfig(Uniform)
			cfg.Objects = 106
			facade := true
			var late []func(*sim.Config)
			for bit := sim.Feature(1); bit <= sim.ExternalFleet; bit <<= 1 {
				if row.With&bit == 0 {
					continue
				}
				if on, ok := switches[bit]; ok {
					on(&cfg)
				} else {
					facade = false
					late = append(late, engineOnly[bit])
				}
			}
			if facade {
				if got := cfg.features(); got != row.With {
					t.Fatalf("facade features = %#b, want the row's %#b", got, row.With)
				}
				var ce *ConfigError
				if err := cfg.Validate(); !errors.Is(err, ErrBadConfig) || !errors.As(err, &ce) || ce.Reason != row.Reason {
					t.Errorf("facade Validate = %v, want ConfigError with reason %q", err, row.Reason)
				}
			}
			// The engine's verdict on the configuration the facade builds.
			external := cfg.LiveMode
			cfg.LiveMode = false // buildSimConfig is the simulator's half of both paths
			simCfg, err := buildSimConfig(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, on := range late {
				on(simCfg)
			}
			want := row.With &^ sim.ExternalFleet
			if got := simCfg.Features(); got != want {
				t.Fatalf("engine features = %#b, want %#b", got, want)
			}
			if external {
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
