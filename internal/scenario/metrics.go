package scenario

import "radar/internal/sim"

// Metrics is a scenario's acceptance surface: the availability, repair
// and efficiency aggregates a corpus run is judged on. Every field is a
// golden-tracked metric; the golden test compares two Metrics field by
// field under a scenario's tolerances.
type Metrics struct {
	TotalServed        int64   `json:"totalServed"`
	FailedRequests     int64   `json:"failedRequests"`
	TimedOutRequests   int64   `json:"timedOutRequests"`
	Availability       float64 `json:"availability"` // served / (served + failed)
	HitRatio           float64 `json:"hitRatio"`     // served / (served + failed + timed out)
	Outages            int64   `json:"outages"`
	UnavailObjSecs     float64 `json:"unavailObjSecs"`
	BelowFloorObjSecs  float64 `json:"belowFloorObjSecs"`
	DeferredMoves      int64   `json:"deferredMoves"`
	RepairReplications int64   `json:"repairReplications"`
	RepairByteHops     int64   `json:"repairByteHops"`
	ReconcileByteHops  int64   `json:"reconcileByteHops"`
	BandwidthEq        float64 `json:"bandwidthEq"` // byte-hops/s at equilibrium
	LatencyEq          float64 `json:"latencyEq"`   // seconds at equilibrium
	AvgReplicas        float64 `json:"avgReplicas"`
	TotalMoves         int64   `json:"totalMoves"`
	// Replica-storage stack counters, summed across layers. All zero for
	// the default memory stack (the only layer it has never hits, misses
	// or evicts), so pre-store goldens — which decode
	// these fields as zero — still match storeless scenarios exactly.
	StoreHits      int64 `json:"storeHits,omitempty"`
	StoreMisses    int64 `json:"storeMisses,omitempty"`
	StoreEvictions int64 `json:"storeEvictions,omitempty"`
}

// MetricsFrom extracts the acceptance metrics from a run's results.
func MetricsFrom(res *sim.Results) Metrics {
	served := float64(res.TotalServed)
	failed := float64(res.FailedRequests)
	timedOut := float64(res.TimedOutRequests)
	m := Metrics{
		TotalServed:        res.TotalServed,
		FailedRequests:     res.FailedRequests,
		TimedOutRequests:   res.TimedOutRequests,
		Outages:            res.Outages,
		UnavailObjSecs:     res.UnavailObjSecs,
		BelowFloorObjSecs:  res.BelowFloorObjSecs,
		DeferredMoves:      res.Counters.DeferredMoves,
		RepairReplications: res.Counters.RepairReplications,
		RepairByteHops:     res.RepairByteHops,
		ReconcileByteHops:  res.ReconcileByteHops,
		BandwidthEq:        res.BandwidthStats.Equilibrium,
		LatencyEq:          res.LatencyStats.Equilibrium,
		AvgReplicas:        res.AvgReplicas,
		TotalMoves:         res.TotalMoves(),
	}
	if served+failed > 0 {
		m.Availability = served / (served + failed)
	}
	if served+failed+timedOut > 0 {
		m.HitRatio = served / (served + failed + timedOut)
	}
	for _, l := range res.StoreLayers {
		m.StoreHits += l.Hits
		m.StoreMisses += l.Misses
		m.StoreEvictions += l.Evictions
	}
	return m
}

// Golden is the on-disk acceptance record for one scenario: the metrics
// plus the scenario version they were generated for.
type Golden struct {
	Version int     `json:"version"`
	Metrics Metrics `json:"metrics"`
}
