// Package sim wires every substrate into the paper's event-driven
// simulation (§6.1): gateways generate client requests at a constant rate,
// a redirector (co-located with the minimum-average-distance node, or
// several with the URL namespace hash-partitioned) assigns each request to
// a replica, FCFS servers service them, responses travel the preference
// path consuming backbone bandwidth, and every host periodically runs the
// replica placement algorithm.
package sim

import (
	"errors"
	"fmt"
	"time"

	"radar/internal/consistency"
	"radar/internal/ctrlplane"
	"radar/internal/fault"
	"radar/internal/object"
	"radar/internal/protocol"
	"radar/internal/server"
	"radar/internal/simnet"
	"radar/internal/store"
	"radar/internal/substrate"
	"radar/internal/topology"
	"radar/internal/workload"
)

// Config fully describes one simulation run. DefaultConfig reproduces
// Table 1.
type Config struct {
	// Seed drives all randomness; equal seeds give bit-identical runs.
	Seed int64
	// Topo is the backbone; nil means the reconstructed UUNET backbone.
	Topo *topology.Topology
	// Universe is the hosted object set (Table 1: 10,000 x 12 KB).
	Universe object.Universe
	// Protocol carries the placement/distribution parameters.
	Protocol protocol.Params
	// Server carries the service capacity.
	Server server.Config
	// Net carries hop delay, bandwidth and the contention switch.
	Net simnet.Config
	// NodeRequestRPS is each gateway's constant request rate (Table 1: 40).
	NodeRequestRPS float64
	// PoissonArrivals switches gateways from constant spacing (the
	// paper's model) to Poisson arrivals.
	PoissonArrivals bool
	// PlacementInterval is the placement decision frequency (Table 1:
	// 100 s). Hosts are staggered across the interval.
	PlacementInterval time.Duration
	// DynamicPlacement enables the paper's protocol; false freezes the
	// initial placement (the static/no-replication baseline).
	DynamicPlacement bool
	// Policy selects the request distribution algorithm.
	Policy protocol.Policy
	// NumRedirectors hash-partitions the URL namespace over the K nodes
	// with the smallest average hop distance (paper simulates 1).
	NumRedirectors int
	// RedirectorAtHome places one redirector per node and assigns each
	// object's redirector to the object's (initial) home node — a
	// per-object placement policy for the §6.1 future-work question of
	// redirector placement. Overrides NumRedirectors.
	RedirectorAtHome bool
	// ReplicateEverywhere seeds a replica of every object on every node —
	// the §4 strawman used by the full-replication ablation.
	ReplicateEverywhere bool
	// InitialPlacement, when non-nil, overrides the paper's round-robin
	// initial assignment with an explicit replica set per object (e.g.
	// the oracle's offline placement). Its length must equal
	// Universe.Count and every object needs at least one replica.
	InitialPlacement [][]topology.NodeID
	// Duration is the simulated time span.
	Duration time.Duration
	// MetricsBucket is the reporting series granularity.
	MetricsBucket time.Duration
	// TrackedHost is the node whose load estimates are sampled for the
	// Figure 8b trace.
	TrackedHost topology.NodeID
	// Consistency is the §5 category mix: each object draws its category
	// from the seed, and category-3 objects migrate but never replicate.
	// The zero value is the all-static population, which gates nothing.
	Consistency consistency.Mix
	// Faults is the deterministic fault-injection schedule: scripted
	// crash/recovery and link cut/restore events plus optional stochastic
	// MTBF/MTTR cycles drawn from the run's seed (a dedicated PRNG stream,
	// so enabling faults never perturbs the workload's randomness). The
	// zero value disables injection and leaves the run bit-identical to a
	// build without the fault subsystem.
	Faults fault.Spec
	// Store describes each host's replica-storage backend stack (see
	// internal/store). The zero value is the plain unbounded memory
	// stack, which keeps runs byte-identical to builds without the store
	// subsystem; non-default stacks charge per-read storage costs into
	// the FCFS servers and surface per-layer counters in Results.
	Store store.Spec
	// Ctrl tunes control RPCs' timeout, retries and backoff: the
	// simulator's lossy plane, armed only when Faults carries message-
	// fault terms (drop/dup/cdelay), and every live node's RPC client.
	// The zero value selects the documented ctrlplane defaults.
	Ctrl ctrlplane.Params
	// Shards is an internal switch: a value of 2 or more selects the
	// sharded event engine (shards.go), whose results are bit-identical to
	// the serial engine's. Only the benchmark module and the engine's own
	// tests set it; ROADMAP item 1b deletes it with the engine.
	Shards int
	// quantum caps a sharded run's window length in virtual time; zero
	// lets windows run to the next global event. Only the barrier tests
	// set it, to force many more barriers than global events require.
	quantum time.Duration
	// ExtraObserver, when non-nil, receives every placement protocol
	// event in addition to the metrics collector — e.g. a trace recorder
	// (trace.NewWriter).
	ExtraObserver protocol.Observer
	// HostWeights gives each host a relative power factor (§2:
	// heterogeneity via per-host weights): host i gets weight x the
	// server capacity and weight-scaled watermarks. Nil means a
	// homogeneous fleet (the paper's setting); otherwise the length must
	// equal the node count and every weight must be positive.
	HostWeights []float64
	// Workload generates requests. Required.
	Workload workload.Generator
	// WorkloadSwitch, when WorkloadSwitch.To is non-nil, swaps the demand
	// generator at virtual time WorkloadSwitch.At — the demand-pattern
	// change whose adjustment the protocol is designed to track (§1).
	WorkloadSwitch struct {
		At time.Duration
		To workload.Generator
	}
}

// Fixed parts of the §6.1 model: the size of every control message
// (handshake leg, notification, reconciliation digest), charged as protocol
// overhead, and the queueing delay past which a client abandons a request.
const (
	controlMsgBytes = 200
	clientTimeout   = 60 * time.Second
)

// DefaultConfig returns the Table 1 configuration (low-load watermarks)
// with the given workload and seed. Topo defaults to the UUNET backbone
// at build time in New.
func DefaultConfig(gen workload.Generator, seed int64) Config {
	return Config{
		Seed:              seed,
		Universe:          object.Universe{Count: 10000, SizeBytes: 12 << 10},
		Protocol:          protocol.DefaultParams(),
		Server:            server.DefaultConfig(),
		Net:               simnet.DefaultConfig(),
		NodeRequestRPS:    40,
		PlacementInterval: 100 * time.Second,
		DynamicPlacement:  true,
		Policy:            protocol.PolicyPaper,
		NumRedirectors:    1,
		Duration:          40 * time.Minute,
		MetricsBucket:     time.Minute,
		TrackedHost:       0,
		Workload:          gen,
	}
}

// Feature is a set of the optional subsystems a run can switch on beyond
// the paper's core. The refusal table is written over features, so the
// radar facade, which judges the configuration it built, refuses a
// combination by the very rows Validate does.
type Feature uint

// The optional subsystems, and the one fact about a run that is not a
// Config switch.
const (
	Sharding       Feature = 1 << iota // Shards selects the sharded engine
	LinkContention                     // Net.Contention
	FaultInjection                     // Faults
	ExternalFleet                      // the fleet is not the in-memory one (NewOver, package live)
)

// Features reports the optional subsystems c switches on.
func (c *Config) Features() Feature {
	var f Feature
	for i, on := range [...]bool{
		c.Shards >= 2,
		c.Net.Contention,
		c.Faults.Enabled() || c.Faults.HasMessageFaults(),
	} {
		if on {
			f |= 1 << i
		}
	}
	return f
}

// Refusal is one row of the refusal table: a run with every feature of
// With switched on is refused for Reason.
type Refusal struct {
	With   Feature
	Reason string
}

// Refusals is the feature-compatibility table. The sharded engine
// partitions per-node state, so subsystems with un-partitionable
// cross-host feedback on the per-request path are refused rather than
// silently run wrong. What a Machine carries — storage stacks, host
// weights, the seeding modes, the category gate — runs on every fleet and
// engine; what is refused over
// an external fleet lives in the loop's or the in-memory fleet's own state
// (DESIGN.md §4.8 gives the reason row by row).
var Refusals = []Refusal{
	{Sharding | LinkContention, "sharded engine is incompatible with link contention (shared busy-until state)"},
	{ExternalFleet | FaultInjection, "fault injection is simulation-only (kill live nodes instead)"},
	{ExternalFleet | Sharding, "the sharded engine is simulation-only"},
}

// MatchRefusal returns the first row of Refusals that set covers, or nil.
func MatchRefusal(set Feature) *Refusal {
	for i := range Refusals {
		if r := &Refusals[i]; set&r.With == r.With {
			return r
		}
	}
	return nil
}

// ErrNoWorkload reports a Config without a workload generator.
var ErrNoWorkload = errors.New("sim: config needs a workload generator")

// ErrUnschedulableRate reports a gateway rate outside (0, 1e9] req/s.
var ErrUnschedulableRate = errors.New("sim: node request rate cannot be scheduled")

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.Workload == nil {
		return ErrNoWorkload
	}
	if err := c.Universe.Validate(); err != nil {
		return err
	}
	if err := c.Protocol.Validate(); err != nil {
		return err
	}
	if err := c.Server.Validate(); err != nil {
		return err
	}
	if err := c.Net.Validate(); err != nil {
		return err
	}
	if rps := c.NodeRequestRPS; !(rps > 0 && rps <= float64(time.Second)) { // NaN fails both
		return fmt.Errorf("%w: %v req/s (requests under 1ns apart would fire at one instant forever)", ErrUnschedulableRate, rps)
	}
	if c.PlacementInterval <= 0 {
		return fmt.Errorf("sim: placement interval %v must be positive", c.PlacementInterval)
	}
	if _, err := protocol.ParsePolicy(c.Policy.String()); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if c.NumRedirectors < 1 {
		return fmt.Errorf("sim: need at least one redirector, got %d", c.NumRedirectors)
	}
	if c.Duration <= 0 {
		return fmt.Errorf("sim: duration %v must be positive", c.Duration)
	}
	if c.MetricsBucket <= 0 {
		return fmt.Errorf("sim: metrics bucket %v must be positive", c.MetricsBucket)
	}
	if err := c.Ctrl.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if c.Shards < 0 {
		return fmt.Errorf("sim: shard count %d is negative", c.Shards)
	}
	if r := MatchRefusal(c.Features()); r != nil {
		return fmt.Errorf("sim: %s", r.Reason)
	}
	if err := c.Consistency.Validate(); err != nil {
		return err
	}
	if c.InitialPlacement != nil {
		if len(c.InitialPlacement) != c.Universe.Count {
			return fmt.Errorf("sim: initial placement covers %d objects, universe has %d", len(c.InitialPlacement), c.Universe.Count)
		}
		for i, reps := range c.InitialPlacement {
			if len(reps) == 0 {
				return fmt.Errorf("sim: object %d has empty initial placement", i)
			}
		}
	}
	if c.WorkloadSwitch.At < 0 {
		return fmt.Errorf("sim: workload switch at negative time %v", c.WorkloadSwitch.At)
	}
	topo := c.Topo
	if topo == nil {
		topo = substrate.UUNET().Topo
	}
	n := topo.NumNodes()
	if err := c.Faults.Validate(n); err != nil {
		return err
	}
	for i, reps := range c.InitialPlacement {
		for _, h := range reps {
			if h < 0 || int(h) >= n {
				return fmt.Errorf("sim: object %d's initial placement names node %d, outside the %d-node topology", i, h, n)
			}
		}
	}
	if c.HostWeights != nil {
		if len(c.HostWeights) != n {
			return fmt.Errorf("sim: %d host weights for %d nodes", len(c.HostWeights), n)
		}
		for i, w := range c.HostWeights {
			if w <= 0 {
				return fmt.Errorf("sim: host %d weight %v must be positive", i, w)
			}
		}
	}
	return nil
}
