package radar_test

import (
	"context"
	"errors"
	"fmt"
	"log"
	"strings"
	"time"

	"radar"
)

// ExampleRun runs one scaled-down simulation under uniform demand and
// inspects the headline numbers. Drop the Objects/Duration overrides to
// run at the paper's Table 1 scale.
func ExampleRun() {
	cfg := radar.DefaultConfig(radar.Uniform)
	cfg.Objects = 500
	cfg.Duration = 2 * time.Minute

	res, err := radar.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("served requests:", res.Summary.TotalServed > 0)
	fmt.Println("bandwidth series recorded:", len(res.Bandwidth) > 0)
	// Output:
	// served requests: true
	// bandwidth series recorded: true
}

// ExampleRunContext shows cancellable execution: a caller-supplied
// deadline or cancel interrupts a long simulation promptly.
func ExampleRunContext() {
	cfg := radar.DefaultConfig(radar.Uniform)
	cfg.Objects = 500
	cfg.Duration = 2 * time.Minute

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := radar.RunContext(ctx, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("completed before deadline:", res.Summary.TotalServed > 0)
	// Output:
	// completed before deadline: true
}

// ExampleRunSeeds averages a metric over independent seeds; the runs
// execute concurrently and return in seed order.
func ExampleRunSeeds() {
	cfg := radar.DefaultConfig(radar.Uniform)
	cfg.Objects = 500
	cfg.Duration = 2 * time.Minute

	results, err := radar.RunSeeds(cfg, []int64{1, 2, 3}, 0)
	if err != nil {
		log.Fatal(err)
	}
	var sum float64
	for _, r := range results {
		sum += r.Summary.BandwidthEquilibrium
	}
	fmt.Println("runs:", len(results))
	fmt.Println("mean equilibrium positive:", sum/float64(len(results)) > 0)
	// Output:
	// runs: 3
	// mean equilibrium positive: true
}

// ExampleConfigError shows the two ways to handle configuration errors:
// errors.Is catches the whole class, and errors.As recovers the offending
// field, value and reason.
func ExampleConfigError() {
	cfg := radar.DefaultConfig(radar.Uniform)
	cfg.Faults.ReplicaFloor = -1

	err := cfg.Validate()
	fmt.Println("bad config:", errors.Is(err, radar.ErrBadConfig))
	var ce *radar.ConfigError
	if errors.As(err, &ce) {
		fmt.Printf("field %s = %v: %s\n", ce.Field, ce.Value, ce.Reason)
	}
	// Output:
	// bad config: true
	// field Faults.ReplicaFloor = -1: negative
}

// ExampleConfig_storage runs a scaled-down simulation whose replicas live
// in a small memory cache over a 5ms disk tier and reads the per-layer
// accounting back from the result.
func ExampleConfig_storage() {
	cfg := radar.DefaultConfig(radar.Uniform)
	cfg.Objects = 500
	cfg.Duration = 2 * time.Minute
	cfg.Storage.Store = "cache(mem:64,disk:5ms)"

	res, err := radar.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	s := res.Summary
	fmt.Println("store enabled:", s.StoreEnabled)
	fmt.Println("spec:", s.StoreSpec)
	fmt.Println("cache activity recorded:", s.StoreHits+s.StoreMisses > 0)
	fmt.Println("layers:", len(res.StoreLayers))
	// Output:
	// store enabled: true
	// spec: cache(mem:64,disk:5ms)
	// cache activity recorded: true
	// layers: 3
}

// ExampleResult_WriteSummary renders a run's summary table.
func ExampleResult_WriteSummary() {
	cfg := radar.DefaultConfig(radar.Uniform)
	cfg.Objects = 500
	cfg.Duration = 2 * time.Minute

	res, err := radar.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	var b strings.Builder
	if err := res.WriteSummary(&b); err != nil {
		log.Fatal(err)
	}
	fmt.Println("mentions bandwidth equilibrium:", strings.Contains(b.String(), "bandwidth equilibrium"))
	// Output:
	// mentions bandwidth equilibrium: true
}
