package scenario

import (
	"cmp"
	"fmt"

	"radar/internal/object"
	"radar/internal/protocol"
	"radar/internal/sim"
	"radar/internal/substrate"
	"radar/internal/topology"
	"radar/internal/workload"
)

// Flash-crowd composition constants: the crowd hammers the pages homed on
// flashCrowdHome from every gateway within flashCrowdRadius hops of it,
// sending flashCrowdPFocus of that vicinity's traffic at the targets —
// the §3 motivating case, aimed at the node the outage scenarios crash.
const (
	flashCrowdHome   = topology.NodeID(9)
	flashCrowdRadius = 2
	flashCrowdPFocus = 0.8
)

// Config builds the full simulation configuration the spec composes:
// Table 1 defaults specialized by every field. Scenario, CLI and radar
// facade runs are all assembled here: the facade lowers its Config to a
// Spec.
func (sp Spec) Config() (sim.Config, error) {
	if sp.Workload == "" {
		return sim.Config{}, fmt.Errorf("scenario: spec has no workload (use ParseSpec)")
	}
	sub := substrate.UUNET()
	u := object.Universe{Count: sp.Objects, SizeBytes: 12 << 10}
	gen, err := buildGenerator(sp.Workload, u, sub, sp.Seed)
	if err != nil {
		return sim.Config{}, err
	}
	cfg := sim.DefaultConfig(gen, sp.Seed)
	cfg.Universe = u
	cfg.Duration = cmp.Or(sp.Duration, cfg.Duration)
	cfg.NodeRequestRPS = cmp.Or(sp.RPS, cfg.NodeRequestRPS)
	cfg.NumRedirectors = cmp.Or(sp.Redirectors, cfg.NumRedirectors)
	if sp.HighLoad {
		cfg.Protocol = protocol.HighLoadParams()
	}
	cfg.Protocol.ReplicaFloor = sp.Floor
	cfg.Protocol.AvailabilityWeight = sp.Avail
	cfg.Policy = sp.Policy
	cfg.DynamicPlacement = !sp.Static
	cfg.Consistency = sp.Consistency
	cfg.PoissonArrivals = sp.Poisson
	cfg.Net.Contention = sp.Contention
	cfg.Ctrl = sp.Ctrl
	cfg.Faults = sp.Faults
	cfg.Store = sp.Store
	if sp.SwitchTo != "" {
		to, err := buildGenerator(sp.SwitchTo, u, sub, sp.Seed)
		if err != nil {
			return sim.Config{}, err
		}
		cfg.WorkloadSwitch.At = sp.SwitchAt
		cfg.WorkloadSwitch.To = to
	}
	if err := cfg.Validate(); err != nil {
		return sim.Config{}, err
	}
	return cfg, nil
}

// buildGenerator constructs a demand generator by scenario name: the
// scenario corpus's own flash crowd, or one of workload.Named's.
func buildGenerator(name string, u object.Universe, sub *substrate.Substrate, seed int64) (workload.Generator, error) {
	topo := sub.Topo
	if name != flashCrowd {
		return workload.Named(name, u, topo, seed)
	}
	background, err := workload.NewZipf(u)
	if err != nil {
		return nil, err
	}
	targets := u.ObjectsHomedAt(flashCrowdHome, topo.NumNodes())
	if len(targets) == 0 {
		return nil, fmt.Errorf("scenario: no objects homed at node %d for the flash crowd", flashCrowdHome)
	}
	var gateways []topology.NodeID
	for n := 0; n < topo.NumNodes(); n++ {
		if sub.Routes.Distance(flashCrowdHome, topology.NodeID(n)) <= flashCrowdRadius {
			gateways = append(gateways, topology.NodeID(n))
		}
	}
	return workload.NewFocused(targets, gateways, flashCrowdPFocus, background)
}
