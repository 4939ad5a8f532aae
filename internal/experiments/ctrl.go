package experiments

import (
	"fmt"
	"time"

	"radar/internal/fault"
	"radar/internal/report"
	"radar/internal/sim"
)

// RunCtrlScenario sweeps control-message drop rates over the Zipf workload
// with a replica floor of 2. Severity runs from loss-free (a control
// pinning that zero-valued message-fault terms leave the plane disarmed)
// through 5%, 20% and 50% per-leg loss, each with 5% duplication and up to
// 20ms extra delay. The table shows how RPC retries, lost handshakes,
// deferred placement moves and anti-entropy healing grow with loss, and
// that the protocol keeps converging (equilibrium bandwidth/latency).
func RunCtrlScenario(opts Options) (*report.Table, error) {
	points, err := sweep(opts, "zipf", "ctrl", []float64{0, 0.05, 0.2, 0.5},
		func(drop float64) []string {
			if drop == 0 {
				return []string{"0 (reliable)"}
			}
			return []string{report.F(drop, 2)}
		},
		func(cfg *sim.Config, drop float64) {
			cfg.Protocol.ReplicaFloor = 2
			if drop > 0 {
				cfg.Faults = fault.Spec{MsgDrop: drop, MsgDup: 0.05, MsgDelay: 20 * time.Millisecond}
			}
		})
	if err != nil {
		return nil, err
	}
	return opts.table(study{
		title:   "Unreliable control plane: message drop sweep (dup 5%, cdelay <=20ms, replica floor 2, Zipf demand)",
		headers: []string{"drop rate", "rpc attempts", "retries", "lost", "deferred", "orphans healed", "stale fixed", "bw eq (B-h/s)", "latency eq (s)"},
		points:  points,
		metrics: func(res *sim.Results) []string {
			return []string{
				fmt.Sprint(res.CtrlStats.Attempts),
				fmt.Sprint(res.CtrlStats.Retries),
				fmt.Sprint(res.CtrlStats.Lost),
				fmt.Sprint(res.Counters.DeferredMoves),
				fmt.Sprint(res.OrphansHealed),
				fmt.Sprint(res.StaleAffinityRepaired),
				report.F(res.BandwidthStats.Equilibrium, 0),
				report.F(res.LatencyStats.Equilibrium, 3),
			}
		},
	})
}
