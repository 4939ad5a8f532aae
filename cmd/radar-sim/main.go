// Command radar-sim runs a hosting-service simulation with the paper's
// Table 1 defaults and prints a summary table, optionally dumping the
// per-bucket series as CSV. With -runs > 1 the same configuration is
// executed across consecutive seeds concurrently on the experiments
// engine and each seed's headline metrics are printed; per-seed results
// are bit-identical to the corresponding single run.
//
// Examples:
//
//	radar-sim -workload hot-sites
//	radar-sim -workload zipf -static
//	radar-sim -workload regional -duration 60m -seed 7 -csv out/
//	radar-sim -workload hot-pages -policy round-robin -high-load
//	radar-sim -workload zipf -runs 8 -parallelism 4
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"radar"
	"radar/internal/profiling"
	"radar/internal/report"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "radar-sim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		workloadName = flag.String("workload", "zipf", "workload: zipf | hot-sites | hot-pages | regional | uniform")
		seed         = flag.Int64("seed", 1, "random seed (same seed = identical run)")
		objects      = flag.Int("objects", 10000, "number of hosted objects")
		duration     = flag.Duration("duration", 40*time.Minute, "simulated time span")
		static       = flag.Bool("static", false, "disable dynamic placement (no-replication baseline)")
		highLoad     = flag.Bool("high-load", false, "use the Figure 9 watermarks (hw=50, lw=40)")
		policy       = flag.String("policy", "paper", "request distribution: paper | round-robin | closest")
		consistency  = flag.String("consistency", "none", "consistency regime: none | mixed")
		redirectors  = flag.Int("redirectors", 1, "number of hash-partitioned redirectors")
		poisson      = flag.Bool("poisson", false, "Poisson request arrivals instead of constant spacing")
		contention   = flag.Bool("contention", false, "FIFO link contention instead of fixed per-hop cost")
		csvDir       = flag.String("csv", "", "directory to write per-bucket series CSVs")
		traceFile    = flag.String("trace", "", "file to write a JSONL placement-event trace")
		runs         = flag.Int("runs", 1, "number of consecutive-seed runs (run concurrently when > 1)")
		parallelism  = flag.Int("parallelism", 0, "concurrent simulations for -runs (0 = GOMAXPROCS)")
		cpuprofile   = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memprofile   = flag.String("memprofile", "", "write a pprof heap profile to this file before exit")
		faults       = flag.String("faults", "", `fault schedule, e.g. "crash:9@3m+5m; drop:0.2; dup:0.05; cdelay:50ms"`)
		replicaFloor = flag.Int("replica-floor", 0, "minimum replicas kept per object (repair replication; 0/1 = paper behavior)")
		availWeight  = flag.Float64("avail-weight", 0, "availability-aware placement weight in [0,1] (0 = paper behavior)")
		ctrlRetries  = flag.Int("ctrl-retries", 0, "control-RPC retry budget under message faults (0 = default 3)")
		ctrlTimeout  = flag.Duration("ctrl-timeout", 0, "per-attempt control-RPC timeout under message faults (0 = default 1s)")
		storeSpec    = flag.String("store", "", `replica-storage stack, e.g. "disk:2ms" or "cache(mem:64,disk:5ms)" (empty = in-memory)`)
	)
	flag.Parse()
	if *runs > 1 && *csvDir != "" {
		return errors.New("-csv writes one run's series and cannot be combined with -runs > 1")
	}

	stopProf, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer stopProf()

	cfg := radar.DefaultConfig(radar.Workload(*workloadName))
	cfg.Seed = *seed
	cfg.Objects = *objects
	cfg.Duration = *duration
	cfg.Static = *static
	cfg.HighLoad = *highLoad
	cfg.Placement.Policy = radar.Policy(*policy)
	cfg.Consistency = radar.Consistency(*consistency)
	cfg.NumRedirectors = *redirectors
	cfg.PoissonArrivals = *poisson
	cfg.LinkContention = *contention
	cfg.Faults.FaultSchedule = *faults
	cfg.Faults.ReplicaFloor = *replicaFloor
	cfg.Placement.AvailabilityWeight = *availWeight
	cfg.Ctrl.CtrlRetries = *ctrlRetries
	cfg.Ctrl.CtrlTimeout = *ctrlTimeout
	cfg.Storage.Store = *storeSpec
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		cfg.TraceWriter = f
	}

	if *runs > 1 {
		return runMany(cfg, *runs, *parallelism)
	}

	start := time.Now()
	res, err := radar.Run(cfg)
	if err != nil {
		return err
	}
	if err := res.WriteSummary(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("\n(wall time %v)\n", time.Since(start).Round(time.Millisecond))

	if *csvDir != "" {
		if err := writeCSVs(*csvDir, res); err != nil {
			return err
		}
		fmt.Printf("series written to %s\n", *csvDir)
	}
	return nil
}

// runMany executes the configuration across n consecutive seeds on the
// parallel engine and prints each seed's headline metrics.
func runMany(cfg radar.Config, n, parallelism int) error {
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = cfg.Seed + int64(i)
	}
	start := time.Now()
	results, err := radar.RunSeeds(cfg, seeds, parallelism)
	if err != nil {
		return err
	}
	fmt.Printf("%6s  %14s  %12s  %12s  %10s\n",
		"seed", "bw eq (B·h/s)", "latency (s)", "replicas", "served")
	for i, res := range results {
		s := res.Summary
		fmt.Printf("%6d  %14.0f  %12.3f  %12.2f  %10d\n",
			seeds[i], s.BandwidthEquilibrium, s.LatencyEquilibrium, s.AvgReplicas, s.TotalServed)
	}
	fmt.Printf("\n(%d runs, wall time %v)\n", n, time.Since(start).Round(time.Millisecond))
	return nil
}

// writeCSVs writes bandwidth, latency, overhead and max load one file
// each, in the format of radar-experiments' figure CSVs but on a time axis
// in seconds, and the tracked host's trace in fig8b_hostload.csv's format.
func writeCSVs(dir string, res *radar.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, s := range []struct {
		name string
		pts  []radar.Point
	}{{"bandwidth", res.Bandwidth}, {"latency", res.Latency}, {"overhead", res.OverheadPct}, {"maxload", res.MaxLoad}} {
		err := report.WriteFile(filepath.Join(dir, s.name+".csv"), func(w io.Writer) error {
			return report.WriteSeriesCSV(w, time.Second, map[string][]radar.Point{s.name: s.pts}, []string{s.name})
		})
		if err != nil {
			return err
		}
	}
	return report.WriteFile(filepath.Join(dir, "hostload.csv"), func(w io.Writer) error { return report.WriteHostLoadCSV(w, res.HostLoad) })
}
