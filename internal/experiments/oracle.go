package experiments

import (
	"fmt"

	"radar/internal/oracle"
	"radar/internal/report"
	"radar/internal/sim"
	"radar/internal/substrate"
)

// AblationOracle answers the paper's future-work question (§1.1): how far
// is the autonomous protocol from a centrally computed placement? The
// oracle sees the exact demand matrix and greedily minimizes byte×hops
// with the same replica budget the protocol ended up using; the protocol
// sees nothing but its own local request counts. Both placements are then
// evaluated under identical demand: the oracle as a static run (its
// placement is already demand-optimal), the protocol dynamically.
func AblationOracle(opts Options) (*report.Table, error) {
	names := []string{"zipf", "regional"}

	// Stage 1: the autonomous protocol runs, fanned out together. The
	// oracle's replica budget depends on their outcomes, so the static
	// oracle evaluations form a second batch.
	dynJobs := make([]Job, 0, len(names))
	for _, name := range names {
		dyn, err := opts.dynamic(name)
		if err != nil {
			return nil, err
		}
		dynJobs = append(dynJobs, Job{Label: "dynamic/" + name, Config: dyn})
	}
	dynResults, err := opts.run(dynJobs)
	if err != nil {
		return nil, err
	}

	// Stage 2: offline greedy placements with the protocol's budget,
	// evaluated as static runs under identical demand.
	oracleJobs := make([]Job, 0, len(names))
	for i, name := range names {
		oracleCfg, err := oracleConfig(dynJobs[i].Config, dynResults[i].Results.AvgReplicas)
		if err != nil {
			return nil, err
		}
		oracleCfg.Duration = opts.staticDuration()
		oracleJobs = append(oracleJobs, Job{Label: "oracle/" + name, Config: oracleCfg})
	}
	oracleResults, err := opts.run(oracleJobs)
	if err != nil {
		return nil, err
	}

	t := &report.Table{
		Title:   "Ablation A7 (§1.1 future work): autonomous protocol vs offline greedy oracle (same replica budget)",
		Headers: []string{"workload", "placement", "bw equilibrium (B·hops/s)", "latency eq (s)", "replicas/object"},
	}
	for i, name := range names {
		dynRes := dynResults[i].Results
		oracleRes := oracleResults[i].Results
		placed := oracle.TotalReplicas(oracleJobs[i].Config.InitialPlacement)
		t.AddRow(name, "protocol (autonomous)",
			report.F(dynRes.BandwidthStats.Equilibrium, 0),
			report.F(dynRes.LatencyStats.Equilibrium, 3),
			report.F(dynRes.AvgReplicas, 2))
		t.AddRow(name, "oracle (offline greedy)",
			report.F(oracleRes.BandwidthStats.Equilibrium, 0),
			report.F(oracleRes.LatencyStats.Equilibrium, 3),
			report.F(float64(placed)/float64(opts.universe().Count), 2))
	}
	return t, nil
}

// oracleConfig freezes cfg at the placement the offline oracle computes
// for it: the oracle sees cfg's exact initial demand matrix and places
// greedily with the replica budget a dynamic run of cfg ended up using
// (avgReplicas per object).
func oracleConfig(cfg sim.Config, avgReplicas float64) (sim.Config, error) {
	sub := substrate.UUNET()
	demand, err := oracle.EstimateDemand(cfg.Workload, sub.Topo, cfg.Universe, cfg.NodeRequestRPS, 20000, cfg.Seed)
	if err != nil {
		return cfg, err
	}
	extra := int(float64(cfg.Universe.Count) * (avgReplicas - 1))
	if extra < 0 {
		extra = 0
	}
	cfg.InitialPlacement, err = oracle.Greedy(sub.Routes, demand, extra)
	cfg.DynamicPlacement = false
	return cfg, err
}

// AblationRedirectors sweeps the number of hash-partitioned redirectors
// (§6.1 future work: redirector placement to minimize added latency).
// More redirectors shorten the gateway-to-redirector detour on average.
func AblationRedirectors(opts Options) (*report.Table, error) {
	// perObject stands for each object's redirector at its home node.
	const perObject = 0
	points, err := sweep(opts, "zipf", "redirectors", []int{1, 2, 4, 8, perObject},
		func(k int) []string {
			if k == perObject {
				return []string{"per-object (home node)"}
			}
			return []string{fmt.Sprint(k)}
		},
		func(cfg *sim.Config, k int) {
			if k == perObject {
				cfg.RedirectorAtHome = true
			} else {
				cfg.NumRedirectors = k
			}
		})
	if err != nil {
		return nil, err
	}
	return opts.table(study{
		title:   "Ablation A8 (§6.1 future work): redirector count sweep (zipf)",
		headers: []string{"redirectors", "latency eq (s)", "bw equilibrium (B·hops/s)", "avg replicas"},
		points:  points,
		metrics: func(res *sim.Results) []string {
			return []string{
				report.F(res.LatencyStats.Equilibrium, 3),
				report.F(res.BandwidthStats.Equilibrium, 0),
				report.F(res.AvgReplicas, 2),
			}
		},
	})
}
