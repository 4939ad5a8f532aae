package metrics

import (
	"reflect"
	"testing"
	"time"

	"radar/internal/object"
	"radar/internal/protocol"
	"radar/internal/simnet"
)

// TestCollectorMergeFrom checks that splitting a stream of commutative
// records across two collectors and merging is indistinguishable from
// recording everything into one collector.
func TestCollectorMergeFrom(t *testing.T) {
	bucket := time.Second
	one, err := New(bucket)
	if err != nil {
		t.Fatal(err)
	}
	main, err := New(bucket)
	if err != nil {
		t.Fatal(err)
	}
	lane, err := New(bucket)
	if err != nil {
		t.Fatal(err)
	}

	rec := func(c *Collector, half int) {
		if half == 0 {
			c.RecordTransfer(time.Second, simnet.Payload, 1000, 3)
			c.RecordLatency(2*time.Second, 150*time.Millisecond)
			c.RecordFailedRequest(3 * time.Second)
			protocol.Recorder(c.Count).OnMigrate(0, object.ID(1), 0, 1, protocol.GeoMove)
			c.RecordOutageWindow(time.Second, 3*time.Second)
		} else {
			c.RecordTransfer(4*time.Second, simnet.Overhead, 500, 2)
			c.RecordLatency(4*time.Second, 50*time.Millisecond)
			c.RecordLatency(5*time.Second, 75*time.Millisecond)
			protocol.Recorder(c.Count).OnReplicate(0, object.ID(2), 1, 2, protocol.LoadMove)
			protocol.Recorder(c.Count).OnDrop(0, object.ID(2), 1)
			c.RecordBelowFloor(5*time.Second, 2, 4.5)
		}
	}
	rec(one, 0)
	rec(one, 1)
	rec(main, 0)
	rec(lane, 1)
	main.MergeFrom(lane)

	if !reflect.DeepEqual(one.Counters(), main.Counters()) {
		t.Errorf("counters diverge: %+v vs %+v", one.Counters(), main.Counters())
	}
	for name, pair := range map[string][2][]Point{
		"bandwidth": {one.BandwidthSeries(), main.BandwidthSeries()},
		"latency":   {one.LatencySeries(), main.LatencySeries()},
		"p99":       {one.LatencyQuantileSeries(0.99), main.LatencyQuantileSeries(0.99)},
		"failed":    {one.FailedRequestSeries(), main.FailedRequestSeries()},
		"overhead":  {one.OverheadPercentSeries(), main.OverheadPercentSeries()},
	} {
		if !reflect.DeepEqual(pair[0], pair[1]) {
			t.Errorf("%s series diverge:\n one: %v\nmerged: %v", name, pair[0], pair[1])
		}
	}
	if one.Outages() != main.Outages() || one.UnavailableObjectSeconds() != main.UnavailableObjectSeconds() {
		t.Error("outage accounting diverges after merge")
	}
	if one.BelowFloorObjectSeconds() != main.BelowFloorObjectSeconds() {
		t.Error("below-floor accounting diverges after merge")
	}
	if one.OverheadPercent() != main.OverheadPercent() {
		t.Error("overhead percent diverges after merge")
	}
}

// TestCollectorMergeBucketMismatchPanics pins the guard: lanes must be
// built with the simulation's bucket size.
func TestCollectorMergeBucketMismatchPanics(t *testing.T) {
	a, _ := New(time.Second)
	b, _ := New(2 * time.Second)
	defer func() {
		if recover() == nil {
			t.Error("bucket mismatch merge did not panic")
		}
	}()
	a.MergeFrom(b)
}
