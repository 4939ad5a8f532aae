package radar

import (
	"errors"
	"strings"
	"testing"

	"radar/internal/live"
	"radar/internal/sim"
)

// TestRefusalTableOneVerdict walks every row of sim.Refusals and checks
// the facade and the engine refuse the combination alike. The engine
// refuses the configuration build assembles, with the row's features on,
// through its own Validate — sim.Config for the sharded-engine rows,
// live.Config for the external-fleet rows — for the row's reason. A row
// the facade can spell (it cannot spell Sharding) is refused by build
// with a ConfigError on Live.LiveMode carrying the same reason; one it
// cannot, the facade builds without it.
func TestRefusalTableOneVerdict(t *testing.T) {
	// switches turns each feature the facade can spell on in a Config.
	switches := map[sim.Feature]func(*Config){
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
				if row.With&bit != 0 && switches[bit] != nil {
					switches[bit](&cfg)
				}
			}
			sharded := row.With&sim.Sharding != 0
			var ce *ConfigError
			_, err := cfg.build()
			switch {
			case sharded && err != nil:
				t.Errorf("facade build = %v, want the row without Sharding accepted", err)
			case !sharded && (!errors.Is(err, ErrBadConfig) || !errors.As(err, &ce) || ce.Reason != row.Reason || ce.Field != "Live.LiveMode"):
				t.Errorf("facade build = %v, want ConfigError on Live.LiveMode with reason %q", err, row.Reason)
			}
			// The engine's verdict on the configuration build assembles:
			// the Spec's half builds (no row is Spec-only), then the
			// engine switch goes on as the benchmark module sets it.
			half := cfg
			half.Live.LiveMode = false
			simCfg, err := half.build()
			if err != nil {
				t.Fatal(err)
			}
			if sharded {
				simCfg.Shards = 4
			}
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
