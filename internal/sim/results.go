package sim

import (
	"time"

	"radar/internal/ctrlplane"
	"radar/internal/metrics"
	"radar/internal/protocol"
	"radar/internal/store"
	"radar/internal/topology"
)

// Results carries everything a run produces: the series behind each paper
// figure, the aggregates behind each table, protocol counters and
// invariant checks.
type Results struct {
	// Run identity.
	WorkloadName string
	Policy       protocol.Policy
	Dynamic      bool
	Duration     time.Duration
	Seed         int64

	// Figure 6 / Figure 9 series.
	Bandwidth []metrics.Point // byte-hops per second, per bucket
	Latency   []metrics.Point // mean seconds, per bucket
	// LatencyP99 is the per-bucket 99th-percentile latency estimate —
	// beyond the paper's averages; tail latency is where backlogs and
	// redirector detours show first.
	LatencyP99 []metrics.Point
	// Figure 7 series.
	OverheadPct []metrics.Point
	// Figure 8a series.
	MaxLoad []metrics.Point
	// Figure 8b series for TrackedHost.
	HostLoad    []metrics.HostLoadSample
	TrackedHost topology.NodeID
	// Replica census over time; AvgReplicas is the final census
	// (Table 2).
	Replicas    []metrics.Point
	AvgReplicas float64

	// Aggregates.
	BandwidthStats  metrics.SeriesStats
	LatencyStats    metrics.SeriesStats
	AdjustmentTime  time.Duration // Table 2
	Adjusted        bool
	OverheadPercent float64 // cumulative, Figure 7 headline
	MaxLoadPeak     float64
	// MaxLoadSettled is the maximum load over the final quarter of the
	// run — the Figure 8a claim is that it stays below the high
	// watermark once hot spots are dissolved.
	MaxLoadSettled float64
	HighWatermark  float64

	// Figure 8b verification: samples where the actual load escaped the
	// [lower, upper] estimate sandwich.
	SandwichViolations int
	SandwichSlackRPS   float64

	// Volume and protocol activity.
	TotalServed    int64
	MaxQueueLen    int
	DroppedChoices int64
	// TimedOutRequests counts requests abandoned due to ClientTimeout.
	TimedOutRequests int64
	// UpdatesInjected / UpdatesPropagated are always zero: provider-update
	// injection is gone. The fields stay because the frozen ledger's
	// identity hashes (benchmark/simrun.go) are over the JSON of Results;
	// they go with the next PR that may re-pin those.
	UpdatesInjected   int64
	UpdatesPropagated int64
	// Failures / Recoveries count executed host crash and recovery events.
	Failures   int64
	Recoveries int64

	// Availability metrics (fault injection). FaultsEnabled records
	// whether any fault source was configured; when false every field
	// below is zero and reports omit the availability section, keeping
	// fault-free output byte-identical to earlier builds.
	FaultsEnabled bool
	// LinkFailures / LinkRecoveries count executed link cut/restore events.
	LinkFailures   int64
	LinkRecoveries int64
	// FailedRequests counts requests lost to faults (crashed host, severed
	// path, no reachable replica); FailedSeries buckets them over time.
	FailedRequests int64
	FailedSeries   []metrics.Point
	// Outages counts zero-replica outage windows; UnavailObjSecs
	// integrates their object-seconds of unavailability.
	Outages        int64
	UnavailObjSecs float64
	// BelowFloor is the objects-below-replica-floor census;
	// BelowFloorObjSecs integrates time spent below the floor.
	BelowFloor        []metrics.Point
	BelowFloorObjSecs float64
	// RepairByteHops is the re-replication traffic spent restoring the
	// replica floor, in byte×hops.
	RepairByteHops int64

	// Unreliable control plane (message faults). CtrlEnabled records
	// whether drop/dup/cdelay terms armed the plane; when false every field
	// below is zero and reports omit the control-plane section, keeping
	// reliable-run output byte-identical to earlier builds.
	CtrlEnabled bool
	// CtrlStats snapshots the plane's RPC and notification counters.
	CtrlStats ctrlplane.Stats
	// OrphansHealed counts replicas re-registered by reconciliation after
	// their create-notify was lost; StaleAffinityRepaired counts recorded
	// affinities corrected; GhostsRemoved counts records erased for
	// replicas their host no longer held.
	OrphansHealed         int64
	StaleAffinityRepaired int64
	GhostsRemoved         int64
	// ReconcileRuns counts anti-entropy passes (including the final pass at
	// the horizon); ReconcileByteHops is their digest traffic in byte×hops.
	ReconcileRuns     int64
	ReconcileByteHops int64

	// Replica-storage backend stack. StoreEnabled records whether a
	// non-default stack was configured; the default unbounded memory
	// stack keeps it false and reports omit the storage section, keeping
	// default output byte-identical to earlier builds. StoreLayers is the
	// fleet-aggregated per-layer counter view (populated even for the
	// default stack; it then carries only serve counts).
	StoreEnabled bool
	StoreSpec    string
	StoreLayers  []store.LayerStats

	Counters  metrics.Counters
	HostStats []protocol.HostStats

	// InvariantsError is non-nil if the post-run invariant check failed.
	InvariantsError error
}

// TotalMoves returns the total number of migrations and replications.
func (r *Results) TotalMoves() int64 {
	c := r.Counters
	return c.GeoMigrations + c.GeoReplications + c.LoadMigrations + c.LoadReplications
}
