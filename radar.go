// Package radar is a from-scratch reproduction of "A Dynamic Object
// Replication and Migration Protocol for an Internet Hosting Service"
// (M. Rabinovich, I. Rabinovich, R. Rajaraman, A. Aggarwal, ICDCS 1999) —
// the protocol suite behind AT&T's RaDaR hosting platform.
//
// The package exposes a small facade over the full system: a discrete-event
// simulation of an Internet hosting service on a reconstructed 53-node
// UUNET backbone, running the paper's request distribution algorithm
// (Fig. 2), autonomous replica placement (Fig. 3), replica creation
// handshake (Fig. 4) and host offloading (Fig. 5), under the paper's four
// synthetic workloads. Run executes one configured simulation and returns
// the series and aggregates behind the paper's tables and figures.
//
// The implementation lives under internal/: the protocol state machines
// (internal/protocol), the theorem bounds (Theorems 1-5), the backbone
// topology and routing substrate, the network and server models, workload
// generators, the consistency layer of §5, and the experiment harness that
// regenerates every published table and figure (cmd/radar-experiments).
package radar

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"radar/internal/consistency"
	"radar/internal/ctrlplane"
	"radar/internal/experiments"
	"radar/internal/fault"
	"radar/internal/live"
	"radar/internal/metrics"
	"radar/internal/protocol"
	"radar/internal/report"
	"radar/internal/scenario"
	"radar/internal/sim"
	"radar/internal/store"
	"radar/internal/substrate"
	"radar/internal/trace"
	"radar/internal/workload"
)

// Workload names one of the paper's synthetic demand shapes (§6.1).
type Workload string

// The paper's workloads plus a uniform control.
const (
	// Zipf draws pages by popularity rank under Zipf's law (Reeds
	// closed-form approximation).
	Zipf Workload = "zipf"
	// HotSites concentrates 90% of demand on pages initially homed at
	// ~10% of the sites: the hot-spot removal stress test.
	HotSites Workload = "hot-sites"
	// HotPages makes 10% of pages uniformly popular (90% of demand),
	// spread across all sites.
	HotPages Workload = "hot-pages"
	// Regional gives each of the four backbone regions a preferred 1%
	// slice of the namespace drawing 90% of its demand.
	Regional Workload = "regional"
	// Uniform requests every object equally from everywhere.
	Uniform Workload = "uniform"
)

// Policy names a request distribution algorithm.
type Policy string

// Request distribution policies.
const (
	// PolicyPaper is the paper's Fig. 2 algorithm: closest replica unless
	// its unit request count exceeds twice the minimum.
	PolicyPaper Policy = "paper"
	// PolicyRoundRobin rotates over replicas (a §3 strawman).
	PolicyRoundRobin Policy = "round-robin"
	// PolicyClosest always uses the closest replica (a §3 strawman).
	PolicyClosest Policy = "closest"
)

// Consistency selects the §5 replica consistency regime.
type Consistency string

// Consistency regimes.
const (
	// ConsistencyNone models an all-static object population: every
	// object may replicate freely (the paper's evaluation setting).
	ConsistencyNone Consistency = "none"
	// ConsistencyMixed assigns the §5 category mix (85% static, 10%
	// commuting, 5% non-commuting with migrate-only placement).
	ConsistencyMixed Consistency = "mixed"
)

// Sentinel errors returned by the facade. Callers match them with
// errors.Is; the returned errors wrap these with the offending value.
var (
	// ErrUnknownWorkload reports a Config.Workload (or SwitchTo) naming
	// none of the package's workloads.
	ErrUnknownWorkload = errors.New("radar: unknown workload")
	// ErrUnknownPolicy reports a Config.Policy naming none of the request
	// distribution policies.
	ErrUnknownPolicy = errors.New("radar: unknown policy")
	// ErrUnknownConsistency reports a Config.Consistency naming none of
	// the §5 consistency regimes.
	ErrUnknownConsistency = errors.New("radar: unknown consistency regime")
	// ErrTraceWriterShared reports a RunSeeds call that would share one
	// TraceWriter across concurrent runs, interleaving their streams.
	ErrTraceWriterShared = errors.New("radar: trace writer cannot be shared across concurrent runs")
	// ErrNoSeeds reports a RunSeeds call with an empty seed list.
	ErrNoSeeds = errors.New("radar: no seeds")
	// ErrBadFaultSchedule reports a Config.Faults.FaultSchedule that does
	// not parse or names unknown nodes.
	ErrBadFaultSchedule = errors.New("radar: bad fault schedule")
	// ErrBadConfig is the umbrella sentinel for out-of-range configuration
	// values. Every such failure is a *ConfigError wrapping ErrBadConfig,
	// so errors.Is(err, ErrBadConfig) catches them all and errors.As
	// recovers the offending field, value and reason.
	ErrBadConfig = errors.New("radar: bad config")
)

// ConfigError reports one configuration field whose value fails
// validation. It wraps ErrBadConfig, so errors.Is catches the whole class
// and errors.As extracts the structured detail:
//
//	var ce *radar.ConfigError
//	if errors.As(err, &ce) {
//	    log.Printf("fix %s: %v (%s)", ce.Field, ce.Value, ce.Reason)
//	}
type ConfigError struct {
	// Field is the grouped path of the offending field, e.g.
	// "Faults.ReplicaFloor".
	Field string
	// Value is the rejected value.
	Value any
	// Reason says what constraint the value violates.
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("radar: bad config: %s = %v: %s", e.Field, e.Value, e.Reason)
}

// Unwrap exposes ErrBadConfig to errors.Is.
func (e *ConfigError) Unwrap() error { return ErrBadConfig }

// Placement groups the placement-policy knobs (Config.Placement).
type Placement struct {
	// Policy selects the request distribution algorithm.
	Policy Policy
	// AvailabilityWeight w in [0, 1] arms the availability-aware placement
	// objective: replicate/migrate candidates are ordered by a blend of
	// the paper's farthest-first distance rule (weight 1-w) and a
	// failure-domain term (weight w) favoring new copies placed far from
	// the object's existing replicas, floor-threatening migrations are
	// demoted behind safe candidates, and replica-floor repair becomes
	// refusal-aware with its accept watermark relaxed from lw toward hw by
	// w. Zero (the default) keeps the run byte-identical to the paper's
	// protocol.
	AvailabilityWeight float64
}

// Faults groups the fault-injection and availability knobs
// (Config.Faults).
type Faults struct {
	// FaultSchedule, when non-empty, enables deterministic fault
	// injection. Semicolon-separated clauses: "crash:NODE@START[+DOWNTIME]"
	// crashes a host (omitting the downtime makes it permanent),
	// "link:A-B@START[+DOWNTIME]" cuts a backbone link, and
	// "mtbf:DUR; mttr:DUR" (plus "linkmtbf"/"linkmttr") adds stochastic
	// exponential failure/repair cycles drawn from the run's seed.
	// Durations use Go syntax ("3m", "90s"). Faults are bit-reproducible:
	// equal seeds give identical fault timelines, and an empty schedule
	// leaves the run byte-identical to earlier releases.
	FaultSchedule string
	// ReplicaFloor, when > 1, makes the system keep at least that many
	// replicas per object: the redirector refuses drops below the floor
	// and hosts re-replicate thinned objects during placement runs (repair
	// replications, reported separately). Zero or one keeps the paper's
	// behavior: replicas exist only where demand warrants them.
	ReplicaFloor int
}

// Ctrl groups the control-RPC knobs (Config.Ctrl).
type Ctrl struct {
	// CtrlRetries overrides the control RPCs' retry budget (attempts =
	// 1 + retries); CtrlTimeout overrides their per-attempt timeout. In
	// the simulator they tune the unreliable control plane, which only
	// FaultSchedule's message-fault clauses (drop/dup/cdelay) arm; in
	// live mode they set every node's RPC client. Zero keeps the defaults
	// (3 retries, 1s).
	CtrlRetries int
	CtrlTimeout time.Duration
}

// Live groups the live serving mode knobs (Config.Live).
type Live struct {
	// LiveMode runs the configuration against an in-process loopback fleet
	// of real HTTP servers instead of the simulator: one listener per
	// backbone node, each owning the node's protocol host (and redirector,
	// on redirector locations), with a driver replaying the simulator's
	// event schedule over the wire. The deterministic simulation remains
	// the executable spec — a healthy live run reproduces the simulator's
	// placement decision sequence. Every node is the simulator's own node
	// assembly, so storage stacks (Storage.Store) run live and report
	// their layers like a simulated run, and ConsistencyMixed gates the
	// same objects: each node derives the category table from the shared
	// configuration. Every placement pass reports its copies with its
	// decisions, so the loop prices the network — LinkContention
	// included — exactly as a simulated run does, and a TraceWriter
	// receives the same decision stream. Live mode refuses what lives in
	// the simulator's loop instead of its nodes: fault injection.
	LiveMode bool
}

// Storage groups the replica-storage stack knobs (Config.Storage); the
// zero value selects the default in-memory backend, which is
// byte-identical to releases that predate storage modeling.
type Storage struct {
	// Store is a replica-storage stack spec: one tier, optionally with
	// an LRU memory tier in front (caches do not nest):
	//
	//	mem[:CAP]                      in-memory, optional replica capacity
	//	disk[:LATENCY]                 unbounded, fixed per-serve latency
	//	cache(mem[:CAP], TIER)         LRU memory tier over a mem or disk TIER
	//
	// Examples: "mem", "disk:2ms", "cache(mem:64,disk:5ms)". Empty
	// selects the default memory backend.
	Store string
}

// Config configures one simulation run. The zero value is not usable;
// start from DefaultConfig. Related knobs are grouped into sub-structs
// (Placement, Faults, Ctrl, Storage, Live).
type Config struct {
	// Seed drives all randomness; equal seeds give identical runs.
	Seed int64
	// Workload selects the demand shape.
	Workload Workload
	// Objects is the hosted object count (Table 1: 10,000 objects of
	// 12 KB).
	Objects int
	// Duration is the simulated time span.
	Duration time.Duration
	// HighLoad selects the Figure 9 watermarks (50/40) instead of
	// Table 1's (90/80).
	HighLoad bool
	// Static disables dynamic placement (the no-replication baseline).
	Static bool
	// Consistency selects the §5 object category regime.
	Consistency Consistency
	// NumRedirectors hash-partitions the URL namespace (default 1).
	NumRedirectors int
	// PoissonArrivals switches gateways from the paper's constant
	// request spacing to Poisson arrivals.
	PoissonArrivals bool
	// LinkContention serializes transfers on each directed link instead
	// of the paper's fixed per-hop transmission cost.
	LinkContention bool
	// SwitchTo, when non-empty, swaps the demand to this workload at
	// SwitchAt — for responsiveness studies of demand-pattern changes. The
	// new generator is seeded with Seed, as a scenario's is.
	SwitchTo Workload
	// SwitchAt is the virtual time of the workload switch.
	SwitchAt time.Duration
	// TraceWriter, when non-nil, receives a JSONL stream of every
	// placement protocol event (migrations, replications, drops,
	// refusals, deferrals) for offline analysis.
	TraceWriter io.Writer

	Placement Placement
	Faults    Faults
	Ctrl      Ctrl
	Storage   Storage
	Live      Live
}

// DefaultConfig returns the paper's Table 1 configuration under the given
// workload.
func DefaultConfig(w Workload) Config {
	return Config{
		Seed:           1,
		Workload:       w,
		Objects:        10000,
		Duration:       40 * time.Minute,
		Placement:      Placement{Policy: PolicyPaper},
		Consistency:    ConsistencyNone,
		NumRedirectors: 1,
	}
}

// Validate reports whether the configuration names a known workload,
// policy and consistency regime and builds a runnable simulation: it
// assembles the very run Run would execute, so a caller can separate
// configuration errors from execution errors. Errors wrap the package's
// sentinels (ErrUnknownWorkload, ErrBadConfig and siblings) or the
// engine's own validation errors, so errors.Is works. A combination live
// mode refuses (sim.Refusals, judged on the built configuration) is a
// *ConfigError on Live.LiveMode carrying the table's reason.
func (c Config) Validate() error {
	_, err := c.build()
	return err
}

// spec lowers c to the scenario.Spec it names, after the checks whose
// failures the facade types: the ErrUnknown* sentinels,
// ErrBadFaultSchedule, and a *ConfigError per out-of-range field.
func (c Config) spec() (sp scenario.Spec, err error) {
	if !slices.Contains(workload.Names, string(c.Workload)) {
		return sp, fmt.Errorf("%w: %q", ErrUnknownWorkload, c.Workload)
	}
	if c.SwitchTo != "" && !slices.Contains(workload.Names, string(c.SwitchTo)) {
		return sp, fmt.Errorf("%w: switch target %q", ErrUnknownWorkload, c.SwitchTo)
	}
	policy, err := protocol.ParsePolicy(string(cmp.Or(c.Placement.Policy, PolicyPaper)))
	if err != nil {
		return sp, fmt.Errorf("%w: %q", ErrUnknownPolicy, c.Placement.Policy)
	}
	var mix consistency.Mix // all objects replicate freely
	switch c.Consistency {
	case ConsistencyNone, "":
	case ConsistencyMixed:
		mix = consistency.DefaultMix()
	default:
		return sp, fmt.Errorf("%w: %q", ErrUnknownConsistency, c.Consistency)
	}
	aw := c.Placement.AvailabilityWeight
	for _, e := range []struct {
		bad bool
		ConfigError
	}{
		{c.Duration < 0, ConfigError{"Duration", c.Duration, "negative"}},
		{c.NumRedirectors < 0, ConfigError{"NumRedirectors", c.NumRedirectors, "negative"}},
		{c.SwitchAt < 0, ConfigError{"SwitchAt", c.SwitchAt, "negative"}},
		{!(aw >= 0 && aw <= 1), ConfigError{"Placement.AvailabilityWeight", aw, "outside [0, 1]"}},
		{c.Faults.ReplicaFloor < 0, ConfigError{"Faults.ReplicaFloor", c.Faults.ReplicaFloor, "negative"}},
		{c.Ctrl.CtrlRetries < 0, ConfigError{"Ctrl.CtrlRetries", c.Ctrl.CtrlRetries, "negative"}},
		{c.Ctrl.CtrlTimeout < 0, ConfigError{"Ctrl.CtrlTimeout", c.Ctrl.CtrlTimeout, "negative"}},
	} {
		if e.bad {
			return sp, &e.ConfigError
		}
	}
	faults, err := fault.ParseSchedule(c.Faults.FaultSchedule)
	if err == nil {
		err = faults.Validate(substrate.UUNET().Topo.NumNodes())
	}
	if err != nil {
		return sp, fmt.Errorf("%w: %v", ErrBadFaultSchedule, err)
	}
	stack, err := store.ParseSpec(c.Storage.Store)
	if err != nil {
		return sp, &ConfigError{Field: "Storage.Store", Value: c.Storage.Store, Reason: err.Error()}
	}
	return scenario.Spec{
		Workload: string(c.Workload), SwitchTo: string(c.SwitchTo), SwitchAt: c.SwitchAt,
		Objects: c.Objects, Duration: c.Duration, Seed: c.Seed, Redirectors: c.NumRedirectors,
		Floor: c.Faults.ReplicaFloor, Avail: aw, Policy: policy, HighLoad: c.HighLoad,
		Faults: faults, Store: stack, Static: c.Static, Consistency: mix,
		Poisson: c.PoissonArrivals, Contention: c.LinkContention,
		Ctrl: ctrlplane.Params{Retries: c.Ctrl.CtrlRetries, Timeout: c.Ctrl.CtrlTimeout},
	}, nil
}

// build assembles the run c describes: Spec.Config builds it from the
// lowered spec, build adds what a Spec does not carry (the trace writer),
// and under LiveMode the engines' refusal table judges the result once.
func (c Config) build() (*sim.Config, error) {
	sp, err := c.spec()
	if err != nil {
		return nil, err
	}
	simCfg, err := sp.Config()
	if err != nil {
		return nil, err
	}
	if c.TraceWriter != nil {
		simCfg.ExtraObserver = trace.NewWriter(c.TraceWriter)
	}
	if c.Live.LiveMode {
		if r := sim.MatchRefusal(simCfg.Features() | sim.ExternalFleet); r != nil {
			return nil, &ConfigError{Field: "Live.LiveMode", Value: true, Reason: r.Reason}
		}
	}
	return &simCfg, nil
}

// Point is one sample of a reported time series: T is the bucket start
// time, V the bucket value.
type Point = metrics.Point

// LoadSample is one Figure 8b sample: a host's measured load between its
// lower and upper protocol estimates.
type LoadSample = metrics.HostLoadSample

// Summary carries a run's headline numbers.
type Summary struct {
	// BandwidthInitial/Equilibrium are backbone traffic levels in
	// byte×hops per second at the start and end of the run;
	// BandwidthReductionPct compares them (Figure 6).
	BandwidthInitial      float64
	BandwidthEquilibrium  float64
	BandwidthReductionPct float64
	// Latency aggregates, in seconds (Figure 6).
	LatencyInitial      float64
	LatencyEquilibrium  float64
	LatencyReductionPct float64
	// OverheadPercent is protocol traffic as a share of total (Figure 7).
	OverheadPercent float64
	// MaxLoadPeak/Settled track the hottest server (Figure 8a).
	MaxLoadPeak    float64
	MaxLoadSettled float64
	// AdjustmentTime is Table 2's responsiveness metric; Adjusted is
	// false when the run never settled.
	AdjustmentTime time.Duration
	Adjusted       bool
	// AvgReplicas is the final average number of replicas per object
	// (Table 2).
	AvgReplicas float64
	// Requests served and abandoned.
	TotalServed      int64
	TimedOutRequests int64
	// Placement activity.
	GeoMigrations    int64
	GeoReplications  int64
	LoadMigrations   int64
	LoadReplications int64
	Drops            int64
	Refusals         int64
	// Availability metrics, all zero unless fault injection was
	// configured (Config.FaultSchedule).
	HostFailures   int64
	HostRecoveries int64
	LinkFailures   int64
	LinkRecoveries int64
	// FailedRequests counts requests lost to faults: crashed host,
	// severed path, or no reachable replica.
	FailedRequests int64
	// Outages counts windows during which an object had zero live
	// replicas; UnavailableObjectSeconds integrates their duration.
	Outages                  int64
	UnavailableObjectSeconds float64
	// BelowFloorObjectSeconds integrates time objects spent below
	// Config.ReplicaFloor.
	BelowFloorObjectSeconds float64
	// RepairReplications and RepairByteHops measure the re-replication
	// work spent restoring the replica floor.
	RepairReplications int64
	RepairByteHops     int64
	// Unreliable control plane metrics, all zero unless the fault schedule
	// carried message-fault clauses (drop/dup/cdelay). CtrlEnabled records
	// whether the plane was armed.
	CtrlEnabled bool
	// CtrlRPCAttempts/Retries/Timeouts/Lost count control RPC activity;
	// CtrlNotifiesLost counts one-way notifications that never arrived.
	CtrlRPCAttempts  int64
	CtrlRPCRetries   int64
	CtrlRPCTimeouts  int64
	CtrlRPCLost      int64
	CtrlNotifiesLost int64
	// DeferredMoves counts placement moves pushed to a later placement
	// interval after a lost handshake.
	DeferredMoves int64
	// OrphansHealed counts replicas re-registered by anti-entropy
	// reconciliation; ReconcileRuns/ReconcileByteHops measure the
	// reconciliation passes and their digest traffic.
	OrphansHealed     int64
	ReconcileRuns     int64
	ReconcileByteHops int64
	// Replica-storage stack aggregates, summed across all hosts and stack
	// layers; all zero unless Config.Storage selects a non-default stack.
	// StoreEnabled records whether one was configured; StoreSpec is its
	// canonical spec. Per-layer breakdowns are in Result.StoreLayers
	// (Summary stays comparable with ==, so only scalars live here).
	StoreEnabled   bool
	StoreSpec      string
	StoreHits      int64
	StoreMisses    int64
	StoreEvictions int64
}

// StoreLayer is one layer of the replica-storage stack's per-layer
// accounting, summed across hosts, in the stack's pre-order (a decorator
// precedes the backends it wraps).
type StoreLayer = store.LayerStats

// Result is everything one run produces.
type Result struct {
	Summary Summary
	// Per-bucket series behind Figures 6, 7, 8a and 9.
	Bandwidth   []Point
	Latency     []Point
	LatencyP99  []Point
	OverheadPct []Point
	MaxLoad     []Point
	// HostLoad is the Figure 8b trace for the tracked host.
	HostLoad []LoadSample
	// StoreLayers is the replica-storage stack's per-layer accounting,
	// empty unless Config.Storage selected a non-default stack.
	StoreLayers []StoreLayer

	raw *sim.Results
}

// Run executes one simulation and returns its results. It is
// RunContext with a background context.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext executes one simulation under ctx and returns its results.
// The simulation engine polls ctx every few thousand events, so canceling
// a long run returns promptly (microseconds of simulation work, not
// virtual-time minutes) with ctx.Err(). A run that completes without
// cancellation is bit-identical to Run. A simulated run is
// RunSeedsContext with the one seed cfg.Seed; live mode drives a loopback
// fleet instead.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.Live.LiveMode {
		return runLive(ctx, cfg)
	}
	out, err := RunSeedsContext(ctx, cfg, []int64{cfg.Seed}, 1)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// RunSeeds executes cfg once per seed, up to parallelism simulations
// concurrently (<= 0 selects GOMAXPROCS), and returns one Result per
// seed in seed order. It is RunSeedsContext with a background context.
func RunSeeds(cfg Config, seeds []int64, parallelism int) ([]*Result, error) {
	return RunSeedsContext(context.Background(), cfg, seeds, parallelism)
}

// RunSeedsContext is RunSeeds with cancellation: canceling ctx abandons
// queued runs, interrupts in-flight ones promptly, and returns ctx's
// error. Each run gets its own independently built generators, so
// runs are race-free and each Result is
// bit-identical to Run with that seed. An empty seed list returns
// ErrNoSeeds; a TraceWriter with more than one seed returns
// ErrTraceWriterShared, because concurrent runs would interleave their
// event streams.
func RunSeedsContext(ctx context.Context, cfg Config, seeds []int64, parallelism int) ([]*Result, error) {
	if len(seeds) == 0 {
		return nil, ErrNoSeeds
	}
	if cfg.TraceWriter != nil && len(seeds) > 1 {
		return nil, fmt.Errorf("%w: %d seeds", ErrTraceWriterShared, len(seeds))
	}
	if cfg.Live.LiveMode {
		return nil, &ConfigError{
			Field: "Live.LiveMode", Value: true,
			Reason: "live mode runs one fleet at a time; use Run per seed",
		}
	}
	jobs := make([]experiments.Job, len(seeds))
	for i, seed := range seeds {
		cfg.Seed = seed
		simCfg, err := cfg.build()
		if err != nil {
			return nil, err
		}
		jobs[i] = experiments.Job{Label: fmt.Sprintf("seed/%d", seed), Config: *simCfg}
	}
	eng := experiments.Engine{Parallelism: parallelism}
	results, err := eng.Run(ctx, jobs)
	if err != nil {
		return nil, err
	}
	out := make([]*Result, len(results))
	for i, r := range results {
		out[i] = convert(r.Results)
	}
	return out, nil
}

// runLive executes one configuration against an in-process loopback
// fleet: real HTTP listeners, one per backbone node, driven through the
// simulator's event schedule. Results use the same schema as a simulated
// run (live-only gaps — e.g. post-run invariant sweeps — stay zero).
func runLive(ctx context.Context, cfg Config) (*Result, error) {
	simCfg, err := cfg.build()
	if err != nil {
		return nil, err
	}
	h, err := live.NewHarness(live.Config{Sim: *simCfg}, nil)
	if err != nil {
		return nil, err
	}
	defer h.Close()
	res, err := h.Driver.Run(ctx)
	if err != nil {
		return nil, err
	}
	return convert(res), nil
}

func convert(res *sim.Results) *Result {
	r := &Result{
		Summary: Summary{
			BandwidthInitial:      res.BandwidthStats.Initial,
			BandwidthEquilibrium:  res.BandwidthStats.Equilibrium,
			BandwidthReductionPct: res.BandwidthStats.ReductionPercent,
			LatencyInitial:        res.LatencyStats.Initial,
			LatencyEquilibrium:    res.LatencyStats.Equilibrium,
			LatencyReductionPct:   res.LatencyStats.ReductionPercent,
			OverheadPercent:       res.OverheadPercent,
			MaxLoadPeak:           res.MaxLoadPeak,
			MaxLoadSettled:        res.MaxLoadSettled,
			AdjustmentTime:        res.AdjustmentTime,
			Adjusted:              res.Adjusted,
			AvgReplicas:           res.AvgReplicas,
			TotalServed:           res.TotalServed,
			TimedOutRequests:      res.TimedOutRequests,
			GeoMigrations:         res.Counters.GeoMigrations,
			GeoReplications:       res.Counters.GeoReplications,
			LoadMigrations:        res.Counters.LoadMigrations,
			LoadReplications:      res.Counters.LoadReplications,
			Drops:                 res.Counters.Drops,
			Refusals:              res.Counters.Refusals,

			HostFailures:             res.Failures,
			HostRecoveries:           res.Recoveries,
			LinkFailures:             res.LinkFailures,
			LinkRecoveries:           res.LinkRecoveries,
			FailedRequests:           res.FailedRequests,
			Outages:                  res.Outages,
			UnavailableObjectSeconds: res.UnavailObjSecs,
			BelowFloorObjectSeconds:  res.BelowFloorObjSecs,
			RepairReplications:       res.Counters.RepairReplications,
			RepairByteHops:           res.RepairByteHops,

			CtrlEnabled:       res.CtrlEnabled,
			CtrlRPCAttempts:   res.CtrlStats.Attempts,
			CtrlRPCRetries:    res.CtrlStats.Retries,
			CtrlRPCTimeouts:   res.CtrlStats.Timeouts,
			CtrlRPCLost:       res.CtrlStats.Lost,
			CtrlNotifiesLost:  res.CtrlStats.NotifiesLost,
			DeferredMoves:     res.Counters.DeferredMoves,
			OrphansHealed:     res.OrphansHealed,
			ReconcileRuns:     res.ReconcileRuns,
			ReconcileByteHops: res.ReconcileByteHops,
		},
		Bandwidth:   res.Bandwidth,
		Latency:     res.Latency,
		LatencyP99:  res.LatencyP99,
		OverheadPct: res.OverheadPct,
		MaxLoad:     res.MaxLoad,
		HostLoad:    res.HostLoad,
		raw:         res,
	}
	if res.StoreEnabled {
		r.Summary.StoreEnabled = true
		r.Summary.StoreSpec = res.StoreSpec
		r.StoreLayers = res.StoreLayers
		for _, l := range res.StoreLayers {
			r.Summary.StoreHits += l.Hits
			r.Summary.StoreMisses += l.Misses
			r.Summary.StoreEvictions += l.Evictions
		}
	}
	return r
}

// WriteSummary renders the run's summary table to w.
func (r *Result) WriteSummary(w io.Writer) error {
	return report.Summary(r.raw).Render(w)
}
