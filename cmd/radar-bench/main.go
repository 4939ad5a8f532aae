// Command radar-bench measures the library's end-to-end hot paths and
// writes JSON artifacts that track them against recorded pre-optimization
// baselines.
//
// Three modes:
//
//	go run ./cmd/radar-bench -o BENCH_run.json
//	    one full default-scale Zipf run (Table 1 parameters, 40 simulated
//	    minutes, ~5 million requests)
//
//	go run ./cmd/radar-bench -mode=suite -o BENCH_suite.json
//	    a 16-run multi-seed experiment suite (2 seeds x 8 quick-scale
//	    runs) executed at several parallelism levels, exercising the
//	    shared substrate cache and the parallel experiment engine
//
//	go run ./cmd/radar-bench -mode=bigrun -o BENCH_bigrun.json
//	    one oversized run (transit-stub backbone, 256 hosts, 100,000
//	    objects) swept across shard counts 1/2/4/8 of the intra-run
//	    sharded engine; the artifact records wall/allocs/peak-heap per
//	    level plus an FNV-64a hash of each level's full Results, and the
//	    tool fails if any hash diverges (bit-identity is the contract)
//
// Wall time is the best of -runs attempts (allocation counts are
// deterministic across runs; wall time is not). Suite mode also records
// the sampled peak heap and an FNV-64a hash of the rendered aggregate
// table, so artifact equivalence with the baseline is machine-checkable.
// EXPERIMENTS.md documents how to regenerate and interpret the artifacts.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"radar"
	"radar/internal/experiments"
	"radar/internal/object"
	"radar/internal/profiling"
	"radar/internal/sim"
	"radar/internal/topology"
	"radar/internal/workload"
)

// Pre-optimization baseline for -mode=run, measured at commit e306ca4
// (before the pooled event queue, flattened routing tables and dense
// per-object state) with this same command's methodology on the default
// Zipf run.
const (
	baselineCommit = "e306ca4"
	baselineWallNS = int64(13_017_516_293)
	baselineAllocs = int64(27_315_823)
	baselineBytes  = int64(1_007_280_232)
)

// Pre-substrate baseline for -mode=suite, measured at commit e1e5b61
// (before the shared substrate cache, the deferred per-server completion
// FIFOs and the int32 counter blocks) with this same command's
// methodology: 16-run multi-seed quick suite, parallelism 4, single
// attempt, on an otherwise idle machine.
const (
	suiteBaselineCommit    = "e1e5b61"
	suiteBaselineWallNS    = int64(29_418_021_914)
	suiteBaselineAllocs    = int64(841_460)
	suiteBaselineBytes     = int64(219_300_440)
	suiteBaselinePeakHeap  = int64(64_057_632)
	suiteBaselineTableHash = "69d09600928e18d3"
)

// measurement is one run's cost.
type measurement struct {
	Commit string `json:"commit,omitempty"`
	WallNS int64  `json:"wall_ns"`
	Wall   string `json:"wall"`
	Allocs int64  `json:"allocs"`
	Bytes  int64  `json:"bytes"`
}

// artifact is the BENCH_run.json schema.
type artifact struct {
	GeneratedBy string `json:"generated_by"`
	Workload    string `json:"workload"`
	Objects     int    `json:"objects"`
	Duration    string `json:"simulated_duration"`
	Seed        int64  `json:"seed"`
	Runs        int    `json:"runs"`
	TotalServed int64  `json:"total_served"`

	Baseline measurement `json:"baseline"`
	Current  measurement `json:"current"`

	WallReductionPct   float64 `json:"wall_reduction_pct"`
	AllocsReductionPct float64 `json:"allocs_reduction_pct"`
	BytesReductionPct  float64 `json:"bytes_reduction_pct"`
}

// suiteMeasurement is one parallelism level's cost in suite mode.
type suiteMeasurement struct {
	Commit      string `json:"commit,omitempty"`
	Parallelism int    `json:"parallelism"`
	WallNS      int64  `json:"wall_ns"`
	Wall        string `json:"wall"`
	Allocs      int64  `json:"allocs"`
	Bytes       int64  `json:"bytes"`
	PeakHeap    int64  `json:"peak_heap_bytes"`
	TableHash   string `json:"table_hash_fnv64a"`
}

// suiteArtifact is the BENCH_suite.json schema.
type suiteArtifact struct {
	GeneratedBy  string  `json:"generated_by"`
	Suite        string  `json:"suite"`
	Seeds        []int64 `json:"seeds"`
	RunsPerLevel int     `json:"runs_per_level"`

	Baseline suiteMeasurement   `json:"baseline"`
	Levels   []suiteMeasurement `json:"levels"`
	Current  suiteMeasurement   `json:"current"` // the level matching the baseline's parallelism

	WallReductionPct     float64 `json:"wall_reduction_pct"`
	AllocsReductionPct   float64 `json:"allocs_reduction_pct"`
	BytesReductionPct    float64 `json:"bytes_reduction_pct"`
	PeakHeapReductionPct float64 `json:"peak_heap_reduction_pct"`
	// TableMatchesBaseline is true when the rendered aggregate table is
	// byte-identical (same FNV-64a hash) to the pre-substrate baseline's.
	TableMatchesBaseline bool `json:"table_matches_baseline"`
}

func main() {
	mode := flag.String("mode", "run", "benchmark mode: run (one default-scale run) | suite (16-run multi-seed suite) | bigrun (256-host shard sweep)")
	out := flag.String("o", "", "output path for the JSON artifact (default BENCH_<mode>.json)")
	runs := flag.Int("runs", 0, "attempts; wall time is the best, allocations the last (default 3 for run, 1 for suite and bigrun)")
	bigObjects := flag.Int("bigrun-objects", 100_000, "bigrun mode: hosted object count (lower it for smoke tests)")
	bigDuration := flag.Duration("bigrun-duration", 5*time.Minute, "bigrun mode: simulated time span")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the measured work to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this file before exit")
	flag.Parse()

	stopProf, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "radar-bench:", err)
		os.Exit(1)
	}
	ok := false
	switch *mode {
	case "run":
		ok = runMode(orDefault(*out, "BENCH_run.json"), orDefaultInt(*runs, 3))
	case "suite":
		ok = suiteMode(orDefault(*out, "BENCH_suite.json"), orDefaultInt(*runs, 1))
	case "bigrun":
		ok = bigrunMode(orDefault(*out, "BENCH_bigrun.json"), orDefaultInt(*runs, 1), *bigObjects, *bigDuration)
	default:
		fmt.Fprintf(os.Stderr, "radar-bench: unknown mode %q (want run, suite or bigrun)\n", *mode)
	}
	stopProf()
	if !ok {
		os.Exit(1)
	}
}

func orDefault(v, def string) string {
	if v == "" {
		return def
	}
	return v
}

func orDefaultInt(v, def int) int {
	if v < 1 {
		return def
	}
	return v
}

func runMode(out string, runs int) bool {
	cfg := radar.DefaultConfig(radar.Zipf)
	var (
		bestWall time.Duration
		allocs   int64
		bytes    int64
		served   int64
	)
	for i := 0; i < runs; i++ {
		wall, a, by, res, err := measureOnce(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "radar-bench:", err)
			return false
		}
		fmt.Fprintf(os.Stderr, "run %d/%d: %v, %d allocs, %d B\n", i+1, runs, wall.Round(time.Millisecond), a, by)
		if bestWall == 0 || wall < bestWall {
			bestWall = wall
		}
		allocs, bytes, served = a, by, res.Summary.TotalServed
	}

	art := artifact{
		GeneratedBy: "go run ./cmd/radar-bench",
		Workload:    string(cfg.Workload),
		Objects:     cfg.Objects,
		Duration:    cfg.Duration.String(),
		Seed:        cfg.Seed,
		Runs:        runs,
		TotalServed: served,
		Baseline: measurement{
			Commit: baselineCommit,
			WallNS: baselineWallNS,
			Wall:   time.Duration(baselineWallNS).Round(time.Millisecond).String(),
			Allocs: baselineAllocs,
			Bytes:  baselineBytes,
		},
		Current: measurement{
			WallNS: int64(bestWall),
			Wall:   bestWall.Round(time.Millisecond).String(),
			Allocs: allocs,
			Bytes:  bytes,
		},
		WallReductionPct:   reduction(baselineWallNS, int64(bestWall)),
		AllocsReductionPct: reduction(baselineAllocs, allocs),
		BytesReductionPct:  reduction(baselineBytes, bytes),
	}
	if !writeArtifact(out, art) {
		return false
	}
	fmt.Printf("wrote %s: wall %s (-%.1f%%), allocs %d (-%.1f%%), bytes %d (-%.1f%%)\n",
		out, art.Current.Wall, art.WallReductionPct, allocs, art.AllocsReductionPct, bytes, art.BytesReductionPct)
	return true
}

// measureOnce executes one run and returns its wall time and the
// process's allocation delta across it.
func measureOnce(cfg radar.Config) (time.Duration, int64, int64, *radar.Result, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err := radar.Run(cfg)
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return 0, 0, 0, nil, err
	}
	return wall, int64(after.Mallocs - before.Mallocs), int64(after.TotalAlloc - before.TotalAlloc), res, nil
}

// suiteSeeds are the multi-seed suite's seeds: 2 seeds x 8 runs = 16 runs.
var suiteSeeds = []int64{1, 2}

func suiteMode(out string, runs int) bool {
	levels := suiteLevels()
	art := suiteArtifact{
		GeneratedBy:  "go run ./cmd/radar-bench -mode=suite",
		Suite:        "multi-seed quick suite (2 seeds x 8 runs)",
		Seeds:        suiteSeeds,
		RunsPerLevel: runs,
		Baseline: suiteMeasurement{
			Commit:      suiteBaselineCommit,
			Parallelism: 4,
			WallNS:      suiteBaselineWallNS,
			Wall:        time.Duration(suiteBaselineWallNS).Round(time.Millisecond).String(),
			Allocs:      suiteBaselineAllocs,
			Bytes:       suiteBaselineBytes,
			PeakHeap:    suiteBaselinePeakHeap,
			TableHash:   suiteBaselineTableHash,
		},
	}
	for _, p := range levels {
		var best suiteMeasurement
		for i := 0; i < runs; i++ {
			m, err := measureSuiteOnce(p)
			if err != nil {
				fmt.Fprintln(os.Stderr, "radar-bench:", err)
				return false
			}
			fmt.Fprintf(os.Stderr, "suite p=%d %d/%d: %v, %d allocs, %d B, peak %d B, table %s\n",
				p, i+1, runs, time.Duration(m.WallNS).Round(time.Millisecond), m.Allocs, m.Bytes, m.PeakHeap, m.TableHash)
			if best.WallNS == 0 || m.WallNS < best.WallNS {
				best = m
			}
		}
		art.Levels = append(art.Levels, best)
		if best.Parallelism == art.Baseline.Parallelism {
			art.Current = best
		}
	}
	if art.Current.WallNS == 0 {
		// No level matched the baseline's parallelism (GOMAXPROCS-capped
		// sweep); compare against the highest level measured.
		art.Current = art.Levels[len(art.Levels)-1]
	}
	art.WallReductionPct = reduction(art.Baseline.WallNS, art.Current.WallNS)
	art.AllocsReductionPct = reduction(art.Baseline.Allocs, art.Current.Allocs)
	art.BytesReductionPct = reduction(art.Baseline.Bytes, art.Current.Bytes)
	art.PeakHeapReductionPct = reduction(art.Baseline.PeakHeap, art.Current.PeakHeap)
	art.TableMatchesBaseline = art.Current.TableHash == art.Baseline.TableHash
	if !writeArtifact(out, art) {
		return false
	}
	fmt.Printf("wrote %s: p=%d wall %s (-%.1f%%), allocs %d (-%.1f%%), bytes %d (-%.1f%%), peak heap %d B (-%.1f%%), table match %v\n",
		out, art.Current.Parallelism, art.Current.Wall, art.WallReductionPct,
		art.Current.Allocs, art.AllocsReductionPct, art.Current.Bytes, art.BytesReductionPct,
		art.Current.PeakHeap, art.PeakHeapReductionPct, art.TableMatchesBaseline)
	return true
}

// suiteLevels returns the parallelism sweep: 1, 2, 4 and GOMAXPROCS,
// deduplicated and sorted. The full sweep always includes the baseline's
// level (4) so reductions compare like with like even on small machines.
func suiteLevels() []int {
	set := map[int]bool{1: true, 2: true, 4: true, runtime.GOMAXPROCS(0): true}
	levels := make([]int, 0, len(set))
	for p := range set {
		levels = append(levels, p)
	}
	sort.Ints(levels)
	return levels
}

// measureSuiteOnce executes the 16-run multi-seed suite at parallelism p,
// returning wall time, the process's allocation delta, the sampled peak
// heap and the FNV-64a hash of the rendered aggregate table.
func measureSuiteOnce(p int) (suiteMeasurement, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	stopSampler := startHeapSampler()

	opts := experiments.Options{Seed: 1, Quick: true, Parallelism: p}
	start := time.Now()
	msr, err := experiments.RunMultiSeed(opts, suiteSeeds, false)
	wall := time.Since(start)
	peakHeap := stopSampler()
	runtime.ReadMemStats(&after)
	if err != nil {
		return suiteMeasurement{}, err
	}

	var buf bytes.Buffer
	if err := msr.Table().Render(&buf); err != nil {
		return suiteMeasurement{}, err
	}
	h := fnv.New64a()
	h.Write(buf.Bytes())

	return suiteMeasurement{
		Parallelism: p,
		WallNS:      int64(wall),
		Wall:        wall.Round(time.Millisecond).String(),
		Allocs:      int64(after.Mallocs - before.Mallocs),
		Bytes:       int64(after.TotalAlloc - before.TotalAlloc),
		PeakHeap:    peakHeap,
		TableHash:   fmt.Sprintf("%016x", h.Sum64()),
	}, nil
}

// startHeapSampler polls HeapAlloc in the background; the returned stop
// function ends the sampler and reports the peak it saw.
func startHeapSampler() func() int64 {
	stop := make(chan struct{})
	done := make(chan struct{})
	var peak atomic.Uint64
	go func() {
		defer close(done)
		var ms runtime.MemStats
		for {
			select {
			case <-stop:
				return
			default:
			}
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peak.Load() {
				peak.Store(ms.HeapAlloc)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}()
	return func() int64 {
		close(stop)
		<-done
		return int64(peak.Load())
	}
}

// bigrunShards is the shard sweep for -mode=bigrun.
var bigrunShards = []int{1, 2, 4, 8}

// bigrunMeasurement is one shard level's cost in bigrun mode.
type bigrunMeasurement struct {
	Shards   int    `json:"shards"`
	WallNS   int64  `json:"wall_ns"`
	Wall     string `json:"wall"`
	Allocs   int64  `json:"allocs"`
	Bytes    int64  `json:"bytes"`
	PeakHeap int64  `json:"peak_heap_bytes"`
	// ResultHash is the FNV-64a hash of the level's full JSON-marshaled
	// Results; the sharded engine's contract is that it is identical at
	// every shard count.
	ResultHash string `json:"result_hash_fnv64a"`
}

// bigrunArtifact is the BENCH_bigrun.json schema.
type bigrunArtifact struct {
	GeneratedBy  string `json:"generated_by"`
	Topology     string `json:"topology"`
	Hosts        int    `json:"hosts"`
	Objects      int    `json:"objects"`
	Duration     string `json:"simulated_duration"`
	Seed         int64  `json:"seed"`
	RunsPerLevel int    `json:"runs_per_level"`
	// GOMAXPROCS is recorded because the shard workers can only run
	// concurrently up to this many OS threads; on a single-core machine
	// the sweep measures barrier/merge overhead, not speedup.
	GOMAXPROCS  int   `json:"gomaxprocs"`
	TotalServed int64 `json:"total_served"`

	Levels []bigrunMeasurement `json:"levels"`
	// HashesMatch is true when every level produced bit-identical Results
	// (same FNV-64a hash). The tool exits non-zero when it is false.
	HashesMatch bool `json:"hashes_match"`
	// SpeedupShards4 is serial wall time over shards=4 wall time.
	SpeedupShards4 float64 `json:"speedup_shards4_vs_serial"`
	Note           string  `json:"note,omitempty"`
}

// bigrunConfig builds the oversized run: a 4-domain transit-stub backbone
// (4 hubs x 15 stubs per domain = 256 hosts) under a Zipf demand over an
// outsized object universe, with everything else at Table 1 defaults.
func bigrunConfig(objects int, duration time.Duration, shards int) (sim.Config, error) {
	u := object.Universe{Count: objects, SizeBytes: 12 << 10}
	gen, err := workload.NewZipf(u)
	if err != nil {
		return sim.Config{}, err
	}
	cfg := sim.DefaultConfig(gen, 1)
	cfg.Topo = topology.TransitStub(4, 4, 15)
	cfg.Universe = u
	cfg.Duration = duration
	cfg.Shards = shards
	return cfg, nil
}

func bigrunMode(out string, runs, objects int, duration time.Duration) bool {
	art := bigrunArtifact{
		GeneratedBy:  "go run ./cmd/radar-bench -mode=bigrun",
		Topology:     "transit-stub(4 domains, 4 hubs, 15 stubs/hub)",
		Hosts:        topology.TransitStub(4, 4, 15).NumNodes(),
		Objects:      objects,
		Duration:     duration.String(),
		Seed:         1,
		RunsPerLevel: runs,
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
	}
	for _, shards := range bigrunShards {
		var best bigrunMeasurement
		for i := 0; i < runs; i++ {
			m, served, err := measureBigrunOnce(objects, duration, shards)
			if err != nil {
				fmt.Fprintln(os.Stderr, "radar-bench:", err)
				return false
			}
			fmt.Fprintf(os.Stderr, "bigrun shards=%d %d/%d: %v, %d allocs, %d B, peak %d B, results %s\n",
				shards, i+1, runs, time.Duration(m.WallNS).Round(time.Millisecond), m.Allocs, m.Bytes, m.PeakHeap, m.ResultHash)
			if best.WallNS == 0 || m.WallNS < best.WallNS {
				best = m
			}
			art.TotalServed = served
		}
		art.Levels = append(art.Levels, best)
	}

	art.HashesMatch = true
	for _, l := range art.Levels {
		if l.ResultHash != art.Levels[0].ResultHash {
			art.HashesMatch = false
		}
	}
	for _, l := range art.Levels {
		if l.Shards == 4 && l.WallNS > 0 {
			art.SpeedupShards4 = float64(art.Levels[0].WallNS) / float64(l.WallNS)
		}
	}
	if art.GOMAXPROCS < 2 {
		art.Note = "single-core environment: shard workers serialize onto one OS thread, so wall times measure sharding overhead, not speedup"
	}
	if !writeArtifact(out, art) {
		return false
	}
	fmt.Printf("wrote %s: %d hosts, %d objects, shards 1..8, hashes match %v, shards=4 speedup %.2fx\n",
		out, art.Hosts, art.Objects, art.HashesMatch, art.SpeedupShards4)
	if !art.HashesMatch {
		fmt.Fprintln(os.Stderr, "radar-bench: FAIL: result hashes diverge across shard levels")
		return false
	}
	return true
}

// measureBigrunOnce executes one oversized run at the given shard count
// and returns its cost plus the FNV-64a hash of its full Results.
func measureBigrunOnce(objects int, duration time.Duration, shards int) (bigrunMeasurement, int64, error) {
	cfg, err := bigrunConfig(objects, duration, shards)
	if err != nil {
		return bigrunMeasurement{}, 0, err
	}
	s, err := sim.New(cfg)
	if err != nil {
		return bigrunMeasurement{}, 0, err
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	stopSampler := startHeapSampler()

	start := time.Now()
	res, err := s.Run()
	wall := time.Since(start)
	peakHeap := stopSampler()
	runtime.ReadMemStats(&after)
	if err != nil {
		return bigrunMeasurement{}, 0, err
	}
	if res.InvariantsError != nil {
		return bigrunMeasurement{}, 0, fmt.Errorf("invariants violated: %w", res.InvariantsError)
	}

	data, err := json.Marshal(res)
	if err != nil {
		return bigrunMeasurement{}, 0, err
	}
	h := fnv.New64a()
	h.Write(data)

	return bigrunMeasurement{
		Shards:     shards,
		WallNS:     int64(wall),
		Wall:       wall.Round(time.Millisecond).String(),
		Allocs:     int64(after.Mallocs - before.Mallocs),
		Bytes:      int64(after.TotalAlloc - before.TotalAlloc),
		PeakHeap:   peakHeap,
		ResultHash: fmt.Sprintf("%016x", h.Sum64()),
	}, res.TotalServed, nil
}

func writeArtifact(out string, art any) bool {
	data, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "radar-bench:", err)
		return false
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "radar-bench:", err)
		return false
	}
	return true
}

// reduction returns the percentage drop from base to cur.
func reduction(base, cur int64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * float64(base-cur) / float64(base)
}
