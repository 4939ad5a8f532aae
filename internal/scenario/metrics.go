package scenario

import (
	"fmt"
	"math"

	"radar/internal/sim"
)

// Metrics is a scenario's acceptance surface: the availability, repair
// and efficiency aggregates a corpus run is judged on. Every field is a
// golden-tracked metric; Check compares two Metrics field by field under
// a scenario's tolerances.
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

// field is one named metric value for tolerance comparison.
type field struct {
	name string
	v    float64
}

func (m Metrics) fields() []field {
	return []field{
		{"TotalServed", float64(m.TotalServed)},
		{"FailedRequests", float64(m.FailedRequests)},
		{"TimedOutRequests", float64(m.TimedOutRequests)},
		{"Availability", m.Availability},
		{"HitRatio", m.HitRatio},
		{"Outages", float64(m.Outages)},
		{"UnavailObjSecs", m.UnavailObjSecs},
		{"BelowFloorObjSecs", m.BelowFloorObjSecs},
		{"DeferredMoves", float64(m.DeferredMoves)},
		{"RepairReplications", float64(m.RepairReplications)},
		{"RepairByteHops", float64(m.RepairByteHops)},
		{"ReconcileByteHops", float64(m.ReconcileByteHops)},
		{"BandwidthEq", m.BandwidthEq},
		{"LatencyEq", m.LatencyEq},
		{"AvgReplicas", m.AvgReplicas},
		{"TotalMoves", float64(m.TotalMoves)},
		{"StoreHits", float64(m.StoreHits)},
		{"StoreMisses", float64(m.StoreMisses)},
		{"StoreEvictions", float64(m.StoreEvictions)},
	}
}

// Check compares got against the golden want under tol (field name →
// relative tolerance; absolute when the golden value is zero; missing
// field → exact match). It returns one violation string per metric
// outside its gate, empty when the run is accepted.
func Check(got, want Metrics, tol map[string]float64) []string {
	var violations []string
	gf, wf := got.fields(), want.fields()
	for i := range gf {
		name := gf[i].name
		g, w := gf[i].v, wf[i].v
		allowed := tol[name] * math.Abs(w)
		if w == 0 {
			allowed = tol[name]
		}
		if diff := math.Abs(g - w); diff > allowed {
			violations = append(violations,
				fmt.Sprintf("%s = %v, golden %v (|diff| %v > allowed %v)", name, g, w, diff, allowed))
		}
	}
	return violations
}
