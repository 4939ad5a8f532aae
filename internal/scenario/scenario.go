// Package scenario composes workload × fault schedule × control-plane
// loss × policy parameters into named, versioned end-to-end scenarios —
// the repo's standing acceptance corpus. Each scenario is written in a
// compact DSL (ParseSpec), builds into a full sim.Config (Spec.Config),
// and carries golden acceptance metrics with per-metric tolerances
// (Metrics, compared by the golden test) pinned under testdata/golden/ —
// every future change runs against the corpus, the way the fault and
// control-plane layers run against their golden regression tables.
package scenario

import (
	"fmt"
	"sort"

	"radar/internal/sim"
)

// Scenario is one named, versioned corpus entry: a DSL composition plus
// the tolerances its golden acceptance gate allows.
type Scenario struct {
	// Name identifies the scenario (CLI -scenario NAME, golden file name).
	Name string
	// Version is bumped whenever the scenario's composition changes
	// incompatibly; the golden file records the version it was generated
	// for, so a stale golden fails loudly instead of drifting silently.
	Version int
	// Description says what the scenario stresses.
	Description string
	// DSL is the composition (see ParseSpec for the grammar).
	DSL string
	// Tolerances maps a Metrics field name to the relative deviation the
	// acceptance gate allows against the golden value (absolute when the
	// golden value is zero). Fields not listed must match exactly — the
	// simulator is deterministic, so exact is the default and tolerances
	// exist only for metrics future refactors may legitimately nudge.
	Tolerances map[string]float64
}

// Spec parses the scenario's DSL.
func (s Scenario) Spec() (Spec, error) { return ParseSpec(s.DSL) }

// Config builds the scenario's simulation configuration.
func (s Scenario) Config() (sim.Config, error) {
	sp, err := s.Spec()
	if err != nil {
		return sim.Config{}, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	cfg, err := sp.Config()
	if err != nil {
		return sim.Config{}, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	return cfg, nil
}

// floatTol is the default relative tolerance for time-integrated floats;
// series-equilibrium metrics get the same; ratios get a tighter one.
var defaultTolerances = map[string]float64{
	"Availability":      0.005,
	"HitRatio":          0.005,
	"UnavailObjSecs":    0.05,
	"BelowFloorObjSecs": 0.05,
	"BandwidthEq":       0.02,
	"LatencyEq":         0.02,
	"AvgReplicas":       0.02,
}

// Corpus returns the standing scenario corpus, in presentation order.
// Every entry is Quick-scale (2000 objects) so the full matrix runs in CI.
func Corpus() []Scenario {
	return []Scenario{
		{
			Name:    "steady-state-baseline",
			Version: 1,
			Description: "zipf demand, no faults, no availability knob — pins the " +
				"zero-knob/zero-fault path bit-identical to the paper's protocol",
			DSL:        "workload:zipf; objects:2000; duration:8m; rps:40; seed:1",
			Tolerances: defaultTolerances,
		},
		{
			Name:    "flash-crowd-regional-outage",
			Version: 1,
			Description: "a vicinity flash crowd on node 9's pages while node 9, a remote " +
				"node and a backbone link fail together — replica floor 2 with the " +
				"availability-aware objective at w=0.5",
			DSL: "workload:flash-crowd; objects:2000; duration:12m; rps:40; seed:1; " +
				"floor:2; avail:0.5; faults:crash:9@4m+4m|crash:30@4m+4m|link:12-13@4m+4m",
			Tolerances: defaultTolerances,
		},
		{
			Name:    "diurnal-lossy-ctrl",
			Version: 1,
			Description: "a diurnal demand swap (zipf to hot-pages at 6m) over a lossy " +
				"control plane (20% drop, 5% dup, 20ms delay) — floor 2, w=0.5",
			DSL: "workload:zipf; switch:hot-pages@6m; objects:2000; duration:12m; rps:40; " +
				"seed:1; floor:2; avail:0.5; faults:drop:0.2|dup:0.05|cdelay:20ms",
			Tolerances: defaultTolerances,
		},
		{
			Name:    "cache-over-disk-tier",
			Version: 1,
			Description: "zipf demand served from a small memory cache over a 5ms disk " +
				"tier — pins the replica-storage stack's hit/miss/eviction accounting " +
				"and the serve-cost queueing it feeds into FCFS occupancy",
			DSL: "workload:zipf; objects:2000; duration:8m; rps:40; seed:1; " +
				"store:cache(mem:64,disk:5ms)",
			Tolerances: defaultTolerances,
		},
		{
			Name:    "correlated-rack-failures",
			Version: 1,
			Description: "three adjacent hosts (9, 10, 11) crash simultaneously for 3m " +
				"under uniform demand — the correlated-failure case the spread term of " +
				"the availability objective (w=0.6) is built for",
			DSL: "workload:uniform; objects:2000; duration:10m; rps:40; seed:1; " +
				"floor:2; avail:0.6; faults:crash:9@4m+3m|crash:10@4m+3m|crash:11@4m+3m",
			Tolerances: defaultTolerances,
		},
	}
}

// ByName returns the corpus scenario with the given name.
func ByName(name string) (Scenario, bool) {
	for _, s := range Corpus() {
		if s.Name == name {
			return s, true
		}
	}
	return Scenario{}, false
}

// Names returns the corpus scenario names, sorted.
func Names() []string {
	corpus := Corpus()
	names := make([]string, 0, len(corpus))
	for _, s := range corpus {
		names = append(names, s.Name)
	}
	sort.Strings(names)
	return names
}
