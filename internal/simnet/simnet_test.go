package simnet

import (
	"reflect"
	"testing"
	"time"

	"radar/internal/routing"
	"radar/internal/topology"
	"radar/internal/workload"
)

// routingTablesForTest builds routes without creating an import cycle in
// production code (simnet itself is routing-agnostic).
func routingTablesForTest(t *testing.T, topo *topology.Topology) *routing.Table {
	t.Helper()
	return routing.New(topo)
}

type recSink struct {
	classes []Class
	bytes   []int64
	hops    []int
}

func (r *recSink) RecordTransfer(_ time.Duration, class Class, bytes int64, hops int) {
	r.classes = append(r.classes, class)
	r.bytes = append(r.bytes, bytes)
	r.hops = append(r.hops, hops)
}

// byteHops sums the recorded byte×hops of one class.
func (r *recSink) byteHops(class Class) int64 {
	var total int64
	for i, c := range r.classes {
		if c == class {
			total += r.bytes[i] * int64(r.hops[i])
		}
	}
	return total
}

func path(ids ...topology.NodeID) []topology.NodeID { return ids }

func TestTransferLatencyNoContention(t *testing.T) {
	cfg := Config{HopDelay: 10 * time.Millisecond, LinkBandwidthBps: 1000}
	nw, err := New(cfg, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 500 bytes at 1000 B/s = 500ms tx per hop; 3 hops.
	got := nw.Transfer(time.Second, path(0, 1, 2, 3), 500, Payload)
	want := time.Second + 3*(500*time.Millisecond+10*time.Millisecond)
	if got != want {
		t.Fatalf("delivery = %v, want %v", got, want)
	}
}

func TestTransferByteHopAccounting(t *testing.T) {
	sink := &recSink{}
	nw, err := New(DefaultConfig(), 5, sink)
	if err != nil {
		t.Fatal(err)
	}
	nw.Transfer(0, path(0, 1, 2), 1200, Payload)
	nw.Transfer(0, path(2, 1), 300, Overhead)
	if got := sink.byteHops(Payload); got != 2400 {
		t.Errorf("payload byte-hops = %d, want 2400", got)
	}
	if got := sink.byteHops(Overhead); got != 300 {
		t.Errorf("overhead byte-hops = %d, want 300", got)
	}
	if len(sink.classes) != 2 || sink.classes[0] != Payload || sink.classes[1] != Overhead {
		t.Errorf("recorder classes = %v", sink.classes)
	}
	if sink.hops[0] != 2 || sink.hops[1] != 1 {
		t.Errorf("recorder hops = %v", sink.hops)
	}
}

func TestSingleNodePathIsFree(t *testing.T) {
	sink := &recSink{}
	nw, err := New(DefaultConfig(), 3, sink)
	if err != nil {
		t.Fatal(err)
	}
	if got := nw.Transfer(5*time.Second, path(1), 9999, Payload); got != 5*time.Second {
		t.Fatalf("local delivery = %v, want immediate", got)
	}
	if len(sink.classes) != 0 {
		t.Fatal("local delivery consumed bandwidth")
	}
}

func TestContentionSerializesLink(t *testing.T) {
	cfg := Config{HopDelay: 0, LinkBandwidthBps: 1000, Contention: true}
	nw, err := New(cfg, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Two 1000-byte transfers on the same link at t=0: second waits.
	d1 := nw.Transfer(0, path(0, 1), 1000, Payload)
	d2 := nw.Transfer(0, path(0, 1), 1000, Payload)
	if d1 != time.Second {
		t.Fatalf("first delivery = %v, want 1s", d1)
	}
	if d2 != 2*time.Second {
		t.Fatalf("second delivery = %v, want 2s (queued behind first)", d2)
	}
	// Opposite direction is a separate link.
	if d3 := nw.Transfer(0, path(1, 0), 1000, Payload); d3 != time.Second {
		t.Fatalf("reverse-direction delivery = %v, want 1s", d3)
	}
}

func TestNoContentionByDefault(t *testing.T) {
	cfg := Config{HopDelay: 0, LinkBandwidthBps: 1000}
	nw, err := New(cfg, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	d1 := nw.Transfer(0, path(0, 1), 1000, Payload)
	d2 := nw.Transfer(0, path(0, 1), 1000, Payload)
	if d1 != d2 {
		t.Fatalf("fixed-cost model should not serialize: %v vs %v", d1, d2)
	}
}

func TestControlLatencyAndMessage(t *testing.T) {
	sink := &recSink{}
	nw, err := New(DefaultConfig(), 4, sink)
	if err != nil {
		t.Fatal(err)
	}
	if got := nw.ControlLatency(time.Second, 3); got != time.Second+30*time.Millisecond {
		t.Fatalf("ControlLatency = %v", got)
	}
	if got := nw.ControlLatency(time.Second, 0); got != time.Second {
		t.Fatalf("zero-hop ControlLatency = %v", got)
	}
	d := nw.ControlMessage(0, path(0, 1, 2), 200)
	if d != 20*time.Millisecond {
		t.Fatalf("ControlMessage delivery = %v, want 20ms", d)
	}
	if got := sink.byteHops(Overhead); got != 400 {
		t.Fatalf("control overhead byte-hops = %d, want 400", got)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{HopDelay: -time.Second, LinkBandwidthBps: 1}, 2, nil); err == nil {
		t.Error("negative hop delay accepted")
	}
	if _, err := New(Config{LinkBandwidthBps: 0}, 2, nil); err == nil {
		t.Error("zero bandwidth accepted")
	}
	if _, err := New(DefaultConfig(), 0, nil); err == nil {
		t.Error("zero nodes accepted")
	}
}

func TestDefaultConfigMatchesTable1(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.HopDelay != 10*time.Millisecond {
		t.Errorf("hop delay = %v, want 10ms", cfg.HopDelay)
	}
	if cfg.LinkBandwidthBps != 350*1024 {
		t.Errorf("bandwidth = %v, want 350 KB/s", cfg.LinkBandwidthBps)
	}
	if cfg.Contention {
		t.Error("contention should default off (paper's fixed-cost model)")
	}
}

// TestConservationProperty: the byte×hops recorded per class always sum
// to the bytes × path hops sent, across random transfer sequences.
func TestConservationProperty(t *testing.T) {
	topo := topology.UUNET()
	routes := routingTablesForTest(t, topo)
	for seed := int64(0); seed < 20; seed++ {
		rng := workload.Stream(seed, 0)
		sink := &recSink{}
		nw, err := New(DefaultConfig(), topo.NumNodes(), sink)
		if err != nil {
			t.Fatal(err)
		}
		var wantByteHops int64
		for i := 0; i < 200; i++ {
			a := topology.NodeID(rng.Intn(topo.NumNodes()))
			b := topology.NodeID(rng.Intn(topo.NumNodes()))
			bytes := int64(rng.Intn(20000) + 1)
			p := routes.Path(a, b)
			class := Payload
			if rng.Intn(2) == 0 {
				class = Overhead
			}
			nw.Transfer(0, p, bytes, class)
			wantByteHops += bytes * int64(len(p)-1)
		}
		p, o := sink.byteHops(Payload), sink.byteHops(Overhead)
		if p+o != wantByteHops {
			t.Fatalf("seed %d: class totals %d != %d", seed, p+o, wantByteHops)
		}
	}
}

// TestContentionFIFOProperty: on a contended link, deliveries of
// back-to-back sends never reorder and never overlap.
func TestContentionFIFOProperty(t *testing.T) {
	cfg := Config{HopDelay: time.Millisecond, LinkBandwidthBps: 10000, Contention: true}
	for seed := int64(0); seed < 10; seed++ {
		rng := workload.Stream(seed, 0)
		nw, err := New(cfg, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		now := time.Duration(0)
		var prevDeliver time.Duration
		for i := 0; i < 100; i++ {
			now += time.Duration(rng.Intn(5)) * time.Millisecond
			bytes := int64(rng.Intn(5000) + 1)
			d := nw.Transfer(now, []topology.NodeID{0, 1}, bytes, Payload)
			txTime := nw.TxTime(bytes)
			if d < now+txTime+cfg.HopDelay {
				t.Fatalf("seed %d transfer %d delivered before its own tx time", seed, i)
			}
			if d <= prevDeliver {
				t.Fatalf("seed %d transfer %d reordered: %v <= %v", seed, i, d, prevDeliver)
			}
			prevDeliver = d
		}
	}
}

func TestLinkDownLifecycle(t *testing.T) {
	nw, err := New(DefaultConfig(), 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := []topology.NodeID{0, 1, 2}
	// Fault-free fast path: no allocation, everything up.
	if !nw.PathUp(path) || nw.links.downLinks != 0 {
		t.Fatal("fresh network reports a down link")
	}
	// Restoring a never-cut link must not allocate the down-map.
	nw.SetLinkDown(1, 2, false)
	if nw.links.down != nil || nw.LinkIsDown(1, 2) {
		t.Fatal("restoring an up link changed state")
	}

	nw.SetLinkDown(2, 1, true) // arbitrary endpoint order
	if !nw.LinkIsDown(1, 2) || !nw.LinkIsDown(2, 1) {
		t.Error("cut is not bidirectional")
	}
	if nw.links.downLinks != 2 {
		t.Errorf("down links = %d, want 2 (both directions)", nw.links.downLinks)
	}
	if nw.PathUp(path) {
		t.Error("path over the cut link reported up")
	}
	if !nw.PathUp([]topology.NodeID{0, 1}) {
		t.Error("path avoiding the cut link reported down")
	}
	if !nw.PathUp([]topology.NodeID{2}) {
		t.Error("single-node path reported down")
	}

	// Idempotence both ways.
	nw.SetLinkDown(1, 2, true)
	if nw.links.downLinks != 2 {
		t.Errorf("re-cutting changed the down links to %d", nw.links.downLinks)
	}
	nw.SetLinkDown(1, 2, false)
	nw.SetLinkDown(1, 2, false)
	if nw.links.downLinks != 0 || nw.LinkIsDown(1, 2) {
		t.Error("restore did not clear the cut")
	}
	if !nw.PathUp(path) {
		t.Error("path still down after restore (counter fast path broken)")
	}
}

func TestControlMessageToMatchesControlMessageWhenUp(t *testing.T) {
	cfg := Config{HopDelay: 10 * time.Millisecond, LinkBandwidthBps: 1000}
	sa, sb := &recSink{}, &recSink{}
	a, _ := New(cfg, 5, sa)
	b, _ := New(cfg, 5, sb)
	wantAt := a.ControlMessage(time.Second, path(0, 1, 2), 200)
	gotAt, ok := b.ControlMessageTo(time.Second, path(0, 1, 2), 200)
	if !ok || gotAt != wantAt {
		t.Fatalf("ControlMessageTo = (%v, %v), want (%v, true)", gotAt, ok, wantAt)
	}
	if !reflect.DeepEqual(sa, sb) {
		t.Fatalf("recorded transfers diverge: %+v vs %+v", sa, sb)
	}
}

func TestControlMessageToStopsAtDownLink(t *testing.T) {
	cfg := Config{HopDelay: 10 * time.Millisecond, LinkBandwidthBps: 1000}
	sink := &recSink{}
	nw, _ := New(cfg, 5, sink)
	nw.SetLinkDown(1, 2, true)
	at, ok := nw.ControlMessageTo(time.Second, path(0, 1, 2, 3), 200)
	if ok {
		t.Fatal("message crossed a down link")
	}
	// One hop (0->1) charged, then stranded at node 1.
	if want := time.Second + 10*time.Millisecond; at != want {
		t.Fatalf("stranded arrival = %v, want %v", at, want)
	}
	if got := sink.byteHops(Overhead); got != 200 {
		t.Fatalf("overhead byte-hops = %d, want 200 (partial charge)", got)
	}
	// Lost at the first hop: nothing charged at all.
	sink2 := &recSink{}
	nw2, _ := New(cfg, 5, sink2)
	nw2.SetLinkDown(0, 1, true)
	at, ok = nw2.ControlMessageTo(time.Second, path(0, 1, 2), 200)
	if ok || at != time.Second || len(sink2.classes) != 0 {
		t.Fatalf("first-hop cut: (%v, %v, %d transfers), want (1s, false, 0)", at, ok, len(sink2.classes))
	}
	// Restoring the link restores full delivery.
	nw.SetLinkDown(1, 2, false)
	if _, ok := nw.ControlMessageTo(0, path(0, 1, 2, 3), 200); !ok {
		t.Fatal("restored path should deliver")
	}
}
