package experiments

import (
	"fmt"
	"time"

	"radar/internal/fault"
	"radar/internal/report"
	"radar/internal/sim"
)

// RunFaultScenario sweeps host failure rates over the uniform workload —
// the hardest case for availability, since uniform demand leaves most
// objects at a single replica — with a replica floor of 2 so the repair
// extension has work to do. Severity runs from fault-free (a control
// pinning that the subsystem is inert when disabled) through mean
// time-between-failures of 20, 10 and 5 minutes per host with 2-minute
// repairs. The table shows the availability cost (failed requests, outage
// object-seconds) and the repair machinery's response (repair
// replications, replica census).
func RunFaultScenario(opts Options) (*report.Table, error) {
	points, err := sweep(opts, "uniform", "faults",
		[]time.Duration{0, 20 * time.Minute, 10 * time.Minute, 5 * time.Minute},
		func(mtbf time.Duration) []string {
			if mtbf == 0 {
				return []string{"none"}
			}
			return []string{mtbf.String()}
		},
		func(cfg *sim.Config, mtbf time.Duration) {
			cfg.Protocol.ReplicaFloor = 2
			if mtbf > 0 {
				cfg.Faults = fault.Spec{HostMTBF: mtbf, HostMTTR: 2 * time.Minute}
			}
		})
	if err != nil {
		return nil, err
	}
	return opts.table(study{
		title:   "Fault injection: host MTBF sweep (MTTR 2m, replica floor 2, uniform demand)",
		headers: []string{"host mtbf", "failures", "failed reqs", "outage obj-s", "below-floor obj-s", "repairs", "avg replicas", "latency eq (s)"},
		points:  points,
		metrics: func(res *sim.Results) []string {
			return []string{
				fmt.Sprint(res.Failures),
				fmt.Sprint(res.FailedRequests),
				report.F(res.UnavailObjSecs, 0),
				report.F(res.BelowFloorObjSecs, 0),
				fmt.Sprint(res.Counters.RepairReplications),
				report.F(res.AvgReplicas, 2),
				report.F(res.LatencyStats.Equilibrium, 3),
			}
		},
	})
}
