// Package metrics collects everything the paper's evaluation reports:
// time-bucketed backbone bandwidth (payload and protocol overhead in
// byte×hops, Figures 6, 7 and 9), average response latency (Figures 6 and
// 9), per-interval maximum server load (Figure 8a), a tracked host's
// actual load against its lower/upper estimates (Figure 8b), the replica
// census and the adjustment-time analysis (Table 2), and protocol event
// counters.
package metrics

import (
	"fmt"
	"time"

	"radar/internal/protocol"
	"radar/internal/simnet"
)

// Point is one sample of a time series.
type Point struct {
	T time.Duration
	V float64
}

// Counters aggregates protocol activity over a run.
type Counters struct {
	GeoMigrations    int64
	GeoReplications  int64
	LoadMigrations   int64
	LoadReplications int64
	Drops            int64
	Refusals         int64
	Requests         int64
	// RepairReplications counts replications made to restore objects to the
	// replica floor after failures (the availability extension).
	RepairReplications int64
	// FailedRequests counts requests lost to faults: serviced-host crash,
	// severed forwarding path, or no reachable replica.
	FailedRequests int64
	// DeferredMoves counts placement moves deferred to a later placement
	// interval after the control plane lost their handshake (each
	// re-deferral counts again; the unreliable-control-plane extension).
	DeferredMoves int64
}

// HostLoadSample is one Figure 8b sample: a host's measured load
// sandwiched by its estimates.
type HostLoadSample struct {
	T      time.Duration
	Actual float64
	Lower  float64
	Upper  float64
}

// Collector accumulates run statistics. It implements simnet.Recorder and
// counts protocol.Events. The zero value is not usable; call New.
//
// Bucketed series live in parallel slices (histograms stored by value in
// one contiguous block); Reserve preallocates them for a known horizon so
// the steady-state recording path never grows a slice, and consecutive
// samples landing in the same bucket — the overwhelmingly common case —
// resolve through a cached bucket index without a division.
type Collector struct {
	bucket time.Duration

	payloadBH  []float64 // byte-hops per bucket
	overheadBH []float64
	latencySum []float64 // seconds
	latencyCnt []int64
	latencyH   []latencyHist
	failedCnt  []int64 // fault-failed requests per bucket

	// Cached bucket of the most recent sample: now in [curStart,
	// curStart+bucket) resolves to curIdx without division.
	curIdx   int
	curStart time.Duration

	maxLoad   []Point
	hostLoads []HostLoadSample
	replicas  []Point // average replicas per object over time

	// Availability accounting (fault injection).
	outages           int64   // completed zero-replica outage windows
	unavailObjSecs    float64 // total object-seconds spent with zero replicas
	belowFloor        []Point // objects below the replica floor over time
	belowFloorObjSecs float64 // object-seconds spent below the replica floor

	counters Counters
}

// New builds a collector with the given series bucket width.
func New(bucket time.Duration) (*Collector, error) {
	if bucket <= 0 {
		return nil, fmt.Errorf("metrics: bucket %v must be positive", bucket)
	}
	return &Collector{bucket: bucket, curIdx: -1}, nil
}

// Reserve preallocates bucketed storage to cover horizon (plus slack for
// deliveries completing just past it), so recording never reallocates
// mid-run. Calling it is optional and purely a performance hint.
func (c *Collector) Reserve(horizon time.Duration) {
	n := int(horizon/c.bucket) + 2
	if n <= cap(c.payloadBH) {
		return
	}
	c.payloadBH = append(make([]float64, 0, n), c.payloadBH...)
	c.overheadBH = append(make([]float64, 0, n), c.overheadBH...)
	c.latencySum = append(make([]float64, 0, n), c.latencySum...)
	c.latencyCnt = append(make([]int64, 0, n), c.latencyCnt...)
	c.latencyH = append(make([]latencyHist, 0, n), c.latencyH...)
	c.failedCnt = append(make([]int64, 0, n), c.failedCnt...)
}

func (c *Collector) idx(now time.Duration) int {
	if c.curIdx >= 0 {
		if off := now - c.curStart; off >= 0 && off < c.bucket {
			return c.curIdx
		}
	}
	i := int(now / c.bucket)
	c.ensureBuckets(i + 1)
	c.curIdx = i
	c.curStart = time.Duration(i) * c.bucket
	return i
}

// RecordTransfer implements simnet.Recorder.
func (c *Collector) RecordTransfer(now time.Duration, class simnet.Class, bytes int64, hops int) {
	i := c.idx(now)
	bh := float64(bytes) * float64(hops)
	if class == simnet.Payload {
		c.payloadBH[i] += bh
	} else {
		c.overheadBH[i] += bh
	}
}

// RecordLatency records one completed request's end-to-end latency at its
// delivery time.
func (c *Collector) RecordLatency(deliveredAt, latency time.Duration) {
	i := c.idx(deliveredAt)
	c.latencySum[i] += latency.Seconds()
	c.latencyCnt[i]++
	c.latencyH[i].observe(latency)
	c.counters.Requests++
}

// RecordFailedRequest records a request lost to a fault (crashed host,
// severed path, or no reachable replica) at the time it failed.
func (c *Collector) RecordFailedRequest(now time.Duration) {
	c.failedCnt[c.idx(now)]++
	c.counters.FailedRequests++
}

// RecordOutageWindow records one completed zero-replica outage window of a
// single object: the object had no live registered replica from start until
// end. Object-seconds of unavailability accumulate.
func (c *Collector) RecordOutageWindow(start, end time.Duration) {
	if end < start {
		return
	}
	c.outages++
	c.unavailObjSecs += (end - start).Seconds()
}

// RecordBelowFloor records a census of objects whose replica count is below
// the configured floor: count objects at time now, contributing objSecs
// object-seconds (count × census interval) since the previous census.
func (c *Collector) RecordBelowFloor(now time.Duration, count int, objSecs float64) {
	c.belowFloor = append(c.belowFloor, Point{T: now, V: float64(count)})
	c.belowFloorObjSecs += objSecs
}

// RecordMaxLoad records the system-wide maximum measured server load at a
// measurement boundary (Figure 8a).
func (c *Collector) RecordMaxLoad(now time.Duration, load float64) {
	c.maxLoad = append(c.maxLoad, Point{T: now, V: load})
}

// RecordHostLoad records a tracked host's actual load and estimate bounds
// (Figure 8b).
func (c *Collector) RecordHostLoad(now time.Duration, actual, lower, upper float64) {
	c.hostLoads = append(c.hostLoads, HostLoadSample{T: now, Actual: actual, Lower: lower, Upper: upper})
}

// RecordReplicaCensus records the average number of replicas per object.
func (c *Collector) RecordReplicaCensus(now time.Duration, avg float64) {
	c.replicas = append(c.replicas, Point{T: now, V: avg})
}

// Count adds one placement decision to the protocol counters.
func (c *Collector) Count(e protocol.Event) { c.counters.Add(e) }

// Add counts one placement decision by its kind and move: a migration or
// replication by its MoveKind, a drop, a refusal or a deferral. A copy is
// not a decision and counts nothing; Requests and FailedRequests are not
// decisions either and are left alone.
func (c *Counters) Add(e protocol.Event) {
	switch e.Kind {
	case protocol.EventMigrate:
		if e.Move == protocol.GeoMove.String() {
			c.GeoMigrations++
		} else {
			c.LoadMigrations++
		}
	case protocol.EventReplicate:
		switch e.Move {
		case protocol.GeoMove.String():
			c.GeoReplications++
		case protocol.RepairMove.String():
			c.RepairReplications++
		default:
			c.LoadReplications++
		}
	case protocol.EventDrop:
		c.Drops++
	case protocol.EventRefuse:
		c.Refusals++
	case protocol.EventDefer:
		c.DeferredMoves++
	}
}

// Counters returns the accumulated protocol counters.
func (c *Collector) Counters() Counters { return c.counters }

// ensureBuckets grows the bucketed slices to cover at least n buckets.
func (c *Collector) ensureBuckets(n int) {
	for len(c.payloadBH) < n {
		c.payloadBH = append(c.payloadBH, 0)
		c.overheadBH = append(c.overheadBH, 0)
		c.latencySum = append(c.latencySum, 0)
		c.latencyCnt = append(c.latencyCnt, 0)
		c.latencyH = append(c.latencyH, latencyHist{})
		c.failedCnt = append(c.failedCnt, 0)
	}
}

// MergeFrom folds another collector's bucketed accumulators, availability
// sums and counters into c. Both collectors must use the same bucket width.
//
// It exists for sharded simulations, whose shard-local collectors only ever
// accumulate order-independent quantities: integer counts, and byte×hop
// sums whose float64 adds are exact (byte×hop products are integers far
// below 2^53), so bucket-wise addition reproduces the serial totals bit for
// bit. Order-sensitive float sums (latency) are replayed into the main
// collector in canonical order instead of being merged here, and point-in-
// time series (max load, host load, replica census, below-floor) are always
// recorded on the main collector directly — MergeFrom does not merge series
// samples.
func (c *Collector) MergeFrom(o *Collector) {
	if o.bucket != c.bucket {
		panic(fmt.Sprintf("metrics: merging collectors with different buckets %v and %v", c.bucket, o.bucket))
	}
	c.ensureBuckets(len(o.payloadBH))
	for i := range o.payloadBH {
		c.payloadBH[i] += o.payloadBH[i]
		c.overheadBH[i] += o.overheadBH[i]
		c.latencySum[i] += o.latencySum[i]
		c.latencyCnt[i] += o.latencyCnt[i]
		c.latencyH[i].merge(&o.latencyH[i])
		c.failedCnt[i] += o.failedCnt[i]
	}
	c.outages += o.outages
	c.unavailObjSecs += o.unavailObjSecs
	c.belowFloorObjSecs += o.belowFloorObjSecs
	c.counters.GeoMigrations += o.counters.GeoMigrations
	c.counters.GeoReplications += o.counters.GeoReplications
	c.counters.LoadMigrations += o.counters.LoadMigrations
	c.counters.LoadReplications += o.counters.LoadReplications
	c.counters.Drops += o.counters.Drops
	c.counters.Refusals += o.counters.Refusals
	c.counters.Requests += o.counters.Requests
	c.counters.RepairReplications += o.counters.RepairReplications
	c.counters.FailedRequests += o.counters.FailedRequests
	c.counters.DeferredMoves += o.counters.DeferredMoves
}

// BandwidthSeries returns total (payload+overhead) backbone bandwidth per
// bucket, in byte×hops per second.
func (c *Collector) BandwidthSeries() []Point {
	out := make([]Point, len(c.payloadBH))
	secs := c.bucket.Seconds()
	for i := range out {
		out[i] = Point{
			T: time.Duration(i) * c.bucket,
			V: (c.payloadBH[i] + c.overheadBH[i]) / secs,
		}
	}
	return out
}

// OverheadPercentSeries returns protocol overhead as a percentage of total
// traffic per bucket (Figure 7).
func (c *Collector) OverheadPercentSeries() []Point {
	out := make([]Point, len(c.payloadBH))
	for i := range out {
		total := c.payloadBH[i] + c.overheadBH[i]
		v := 0.0
		if total > 0 {
			v = 100 * c.overheadBH[i] / total
		}
		out[i] = Point{T: time.Duration(i) * c.bucket, V: v}
	}
	return out
}

// LatencySeries returns average response latency (seconds) per bucket.
func (c *Collector) LatencySeries() []Point {
	out := make([]Point, len(c.latencySum))
	for i := range out {
		v := 0.0
		if c.latencyCnt[i] > 0 {
			v = c.latencySum[i] / float64(c.latencyCnt[i])
		}
		out[i] = Point{T: time.Duration(i) * c.bucket, V: v}
	}
	return out
}

// LatencyQuantileSeries returns a per-bucket latency quantile estimate
// (seconds). q is in [0,1]; e.g. 0.99 for p99. Estimates come from a
// log-spaced histogram with ~7% relative resolution and are rounded up.
func (c *Collector) LatencyQuantileSeries(q float64) []Point {
	out := make([]Point, len(c.latencyH))
	for i := range out {
		out[i] = Point{T: time.Duration(i) * c.bucket, V: c.latencyH[i].quantile(q)}
	}
	return out
}

// MaxLoadSeries returns the Figure 8a series.
func (c *Collector) MaxLoadSeries() []Point {
	out := make([]Point, len(c.maxLoad))
	copy(out, c.maxLoad)
	return out
}

// HostLoadSeries returns the Figure 8b samples.
func (c *Collector) HostLoadSeries() []HostLoadSample {
	out := make([]HostLoadSample, len(c.hostLoads))
	copy(out, c.hostLoads)
	return out
}

// FailedRequestSeries returns fault-failed requests per bucket.
func (c *Collector) FailedRequestSeries() []Point {
	out := make([]Point, len(c.failedCnt))
	for i := range out {
		out[i] = Point{T: time.Duration(i) * c.bucket, V: float64(c.failedCnt[i])}
	}
	return out
}

// Outages returns the number of completed zero-replica outage windows.
func (c *Collector) Outages() int64 { return c.outages }

// UnavailableObjectSeconds returns total object-seconds spent with zero
// live replicas.
func (c *Collector) UnavailableObjectSeconds() float64 { return c.unavailObjSecs }

// BelowFloorSeries returns the objects-below-replica-floor census series.
func (c *Collector) BelowFloorSeries() []Point {
	out := make([]Point, len(c.belowFloor))
	copy(out, c.belowFloor)
	return out
}

// BelowFloorObjectSeconds returns total object-seconds spent below the
// replica floor.
func (c *Collector) BelowFloorObjectSeconds() float64 { return c.belowFloorObjSecs }

// ReplicaSeries returns the average-replicas-per-object series.
func (c *Collector) ReplicaSeries() []Point {
	out := make([]Point, len(c.replicas))
	copy(out, c.replicas)
	return out
}

// TotalByteHops returns cumulative (payload, overhead) byte×hops.
func (c *Collector) TotalByteHops() (payload, overhead float64) {
	for i := range c.payloadBH {
		payload += c.payloadBH[i]
		overhead += c.overheadBH[i]
	}
	return payload, overhead
}

// OverheadPercent returns cumulative overhead as a percentage of total
// traffic.
func (c *Collector) OverheadPercent() float64 {
	p, o := c.TotalByteHops()
	if p+o == 0 {
		return 0
	}
	return 100 * o / (p + o)
}
