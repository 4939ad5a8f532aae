package experiments

import (
	"fmt"

	"radar/internal/report"
	"radar/internal/scenario"
	"radar/internal/sim"
)

// CorpusRun is one scenario's three-way comparison: the legacy policy
// (availability weight forced to zero), the scenario's availability-aware
// composition, and the offline greedy oracle evaluated statically under
// the same demand, faults and horizon.
type CorpusRun struct {
	Scenario scenario.Scenario
	Legacy   *sim.Results
	Avail    *sim.Results
	Oracle   *sim.Results
	// LegacyM/AvailM/OracleM are the acceptance metrics of each variant.
	LegacyM, AvailM, OracleM scenario.Metrics
}

// CorpusReport bundles the corpus comparison runs with their rendered
// table.
type CorpusReport struct {
	Runs  []CorpusRun
	Table *report.Table
}

// RunCorpus executes the scenario corpus (or the given subset) as a
// three-variant comparison per scenario on the parallel engine. Stage 1
// fans out the legacy and availability-aware runs; stage 2 evaluates the
// greedy oracle, whose replica budget is the legacy run's outcome (the
// AblationOracle discipline). Results are bit-identical at every
// parallelism level.
func RunCorpus(opts Options, scens []scenario.Scenario) (*CorpusReport, error) {
	if len(scens) == 0 {
		scens = scenario.Corpus()
	}
	stage1 := make([]Job, 0, 2*len(scens))
	for _, sc := range scens {
		cfg, err := sc.Config()
		if err != nil {
			return nil, err
		}
		legacy := cfg
		legacy.Protocol.AvailabilityWeight = 0
		stage1 = append(stage1, Job{Label: sc.Name + "/legacy", Config: legacy})
		stage1 = append(stage1, Job{Label: sc.Name + "/avail", Config: cfg})
	}
	res1, err := opts.run(stage1)
	if err != nil {
		return nil, err
	}

	// Stage 2: the oracle sees the exact initial demand matrix and places
	// greedily with the legacy run's replica budget; its placement is then
	// frozen (static run) under the identical composition — including the
	// fault schedule, so outage scenarios measure what an offline-optimal
	// but unrepaired placement costs in availability.
	stage2 := make([]Job, 0, len(scens))
	for i, sc := range scens {
		ocfg, err := oracleConfig(stage1[2*i].Config, res1[2*i].Results.AvgReplicas)
		if err != nil {
			return nil, fmt.Errorf("corpus %s: %w", sc.Name, err)
		}
		stage2 = append(stage2, Job{Label: sc.Name + "/oracle", Config: ocfg})
	}
	res2, err := opts.run(stage2)
	if err != nil {
		return nil, err
	}

	rep := &CorpusReport{Table: &report.Table{
		Title: "Scenario corpus: legacy policy vs availability-aware placement vs greedy oracle",
		Headers: []string{"scenario", "variant", "avail %", "failed", "outage obj·s",
			"<floor obj·s", "repairs", "bw eq (B·hops/s)", "latency eq (s)", "replicas"},
	}}
	for i, sc := range scens {
		run := CorpusRun{
			Scenario: sc,
			Legacy:   res1[2*i].Results,
			Avail:    res1[2*i+1].Results,
			Oracle:   res2[i].Results,
		}
		run.LegacyM = scenario.MetricsFrom(run.Legacy)
		run.AvailM = scenario.MetricsFrom(run.Avail)
		run.OracleM = scenario.MetricsFrom(run.Oracle)
		rep.Runs = append(rep.Runs, run)
		for _, v := range []struct {
			name string
			m    scenario.Metrics
		}{
			{"legacy", run.LegacyM},
			{"avail-aware", run.AvailM},
			{"oracle (static)", run.OracleM},
		} {
			rep.Table.AddRow(sc.Name, v.name,
				report.F(100*v.m.Availability, 3),
				fmt.Sprint(v.m.FailedRequests),
				report.F(v.m.UnavailObjSecs, 0),
				report.F(v.m.BelowFloorObjSecs, 0),
				fmt.Sprint(v.m.RepairReplications),
				report.F(v.m.BandwidthEq, 0),
				report.F(v.m.LatencyEq, 3),
				report.F(v.m.AvgReplicas, 2))
		}
	}
	return rep, nil
}
