package radar_test

import (
	"errors"
	"testing"
	"time"

	"radar"
)

// TestConfigErrorClassAndDetail: every out-of-range value is a
// *ConfigError wrapping ErrBadConfig, with the structured field detail
// intact.
func TestConfigErrorClassAndDetail(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*radar.Config)
		field  string
	}{
		{"replica floor", func(c *radar.Config) { c.Faults.ReplicaFloor = -1 }, "Faults.ReplicaFloor"},
		{"availability weight", func(c *radar.Config) { c.Placement.AvailabilityWeight = -0.1 }, "Placement.AvailabilityWeight"},
		{"ctrl retries", func(c *radar.Config) { c.Ctrl.CtrlRetries = -2 }, "Ctrl.CtrlRetries"},
		{"ctrl timeout", func(c *radar.Config) { c.Ctrl.CtrlTimeout = -time.Second }, "Ctrl.CtrlTimeout"},
		{"store spec", func(c *radar.Config) { c.Storage.Store = "mem(" }, "Storage.Store"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := radar.DefaultConfig(radar.Uniform)
			tc.mutate(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatal("bad config validated")
			}
			if !errors.Is(err, radar.ErrBadConfig) {
				t.Errorf("error %v does not match ErrBadConfig", err)
			}
			var ce *radar.ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("error %v is not a *ConfigError", err)
			}
			if ce.Field != tc.field {
				t.Errorf("ConfigError.Field = %q, want %q", ce.Field, tc.field)
			}
		})
	}
}

// TestRunBadStoreSpec: a malformed store term is caught at Run time as a
// ConfigError on its field.
func TestRunBadStoreSpec(t *testing.T) {
	cfg := radar.DefaultConfig(radar.Uniform)
	cfg.Objects = 100
	cfg.Duration = time.Minute
	cfg.Storage.Store = "mirror(mem)"
	if _, err := radar.Run(cfg); !badField(err, "Storage.Store") {
		t.Errorf("Run error = %v, want ConfigError on Storage.Store", err)
	}
}

// TestRunCacheOverDisk: a cache-over-disk run through the facade reports
// per-layer stats, and the default store keeps them disabled.
func TestRunCacheOverDisk(t *testing.T) {
	cfg := radar.DefaultConfig(radar.Zipf)
	cfg.Objects = 500
	cfg.Duration = 2 * time.Minute
	cfg.Storage.Store = "cache(mem:32,disk:2ms)"
	res, err := radar.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Summary
	if !s.StoreEnabled {
		t.Error("StoreEnabled = false with a non-default stack")
	}
	if s.StoreSpec != "cache(mem:32,disk:2ms)" {
		t.Errorf("StoreSpec = %q", s.StoreSpec)
	}
	if s.StoreHits+s.StoreMisses == 0 {
		t.Error("cache recorded no activity")
	}
	if len(res.StoreLayers) != 3 {
		t.Fatalf("got %d store layers, want 3 (cache, mem, disk)", len(res.StoreLayers))
	}
	if res.StoreLayers[0].Label != "cache" || res.StoreLayers[1].Label != "mem:32" || res.StoreLayers[2].Label != "disk:2ms" {
		t.Errorf("layer labels = %q, %q, %q", res.StoreLayers[0].Label, res.StoreLayers[1].Label, res.StoreLayers[2].Label)
	}
	if res.StoreLayers[2].CostNanos == 0 {
		t.Error("disk tier accrued no serve cost")
	}

	plain := radar.DefaultConfig(radar.Zipf)
	plain.Objects = 500
	plain.Duration = 2 * time.Minute
	resPlain, err := radar.Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	if resPlain.Summary.StoreEnabled || len(resPlain.StoreLayers) != 0 {
		t.Error("default store reports storage stats")
	}
}
