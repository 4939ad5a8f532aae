package simnet

import (
	"math/rand"
	"testing"
	"time"

	"radar/internal/routing"
	"radar/internal/topology"
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
	if got := nw.PayloadByteHops(); got != 2400 {
		t.Errorf("payload byte-hops = %d, want 2400", got)
	}
	if got := nw.OverheadByteHops(); got != 300 {
		t.Errorf("overhead byte-hops = %d, want 300", got)
	}
	if len(sink.classes) != 2 || sink.classes[0] != Payload || sink.classes[1] != Overhead {
		t.Errorf("recorder classes = %v", sink.classes)
	}
	if sink.hops[0] != 2 || sink.hops[1] != 1 {
		t.Errorf("recorder hops = %v", sink.hops)
	}
	if got := nw.LinkBytes(0, 1); got != 1200 {
		t.Errorf("LinkBytes(0,1) = %d, want 1200", got)
	}
	if got := nw.LinkBytes(1, 0); got != 0 {
		t.Errorf("LinkBytes(1,0) = %d, want 0 (directed)", got)
	}
}

func TestSingleNodePathIsFree(t *testing.T) {
	nw, err := New(DefaultConfig(), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := nw.Transfer(5*time.Second, path(1), 9999, Payload); got != 5*time.Second {
		t.Fatalf("local delivery = %v, want immediate", got)
	}
	if nw.PayloadByteHops() != 0 {
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
	nw, err := New(DefaultConfig(), 4, nil)
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
	if got := nw.OverheadByteHops(); got != 400 {
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

// TestConservationProperty: the sum of per-link byte counters always
// equals total bytes x hops across random transfer sequences.
func TestConservationProperty(t *testing.T) {
	topo := topology.UUNET()
	routes := routingTablesForTest(t, topo)
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nw, err := New(DefaultConfig(), topo.NumNodes(), nil)
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
		var gotLinkBytes int64
		for a := 0; a < topo.NumNodes(); a++ {
			for b := 0; b < topo.NumNodes(); b++ {
				gotLinkBytes += nw.LinkBytes(topology.NodeID(a), topology.NodeID(b))
			}
		}
		if gotLinkBytes != wantByteHops {
			t.Fatalf("seed %d: link bytes %d != byte-hops %d", seed, gotLinkBytes, wantByteHops)
		}
		p, o := nw.PayloadByteHops(), nw.OverheadByteHops()
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
		rng := rand.New(rand.NewSource(seed))
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
	if !nw.PathUp(path) || nw.DownLinks() != 0 {
		t.Fatal("fresh network reports a down link")
	}
	// Restoring a never-cut link must not allocate the down-map.
	nw.SetLinkDown(1, 2, false)
	if nw.DownLinks() != 0 || nw.LinkIsDown(1, 2) {
		t.Fatal("restoring an up link changed state")
	}

	nw.SetLinkDown(2, 1, true) // arbitrary endpoint order
	if !nw.LinkIsDown(1, 2) || !nw.LinkIsDown(2, 1) {
		t.Error("cut is not bidirectional")
	}
	if nw.DownLinks() != 2 {
		t.Errorf("DownLinks = %d, want 2 (both directions)", nw.DownLinks())
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
	if nw.DownLinks() != 2 {
		t.Errorf("re-cutting changed DownLinks to %d", nw.DownLinks())
	}
	nw.SetLinkDown(1, 2, false)
	nw.SetLinkDown(1, 2, false)
	if nw.DownLinks() != 0 || nw.LinkIsDown(1, 2) {
		t.Error("restore did not clear the cut")
	}
	if !nw.PathUp(path) {
		t.Error("path still down after restore (counter fast path broken)")
	}
}

func TestControlMessageToMatchesControlMessageWhenUp(t *testing.T) {
	cfg := Config{HopDelay: 10 * time.Millisecond, LinkBandwidthBps: 1000}
	a, _ := New(cfg, 5, nil)
	b, _ := New(cfg, 5, nil)
	wantAt := a.ControlMessage(time.Second, path(0, 1, 2), 200)
	gotAt, ok := b.ControlMessageTo(time.Second, path(0, 1, 2), 200)
	if !ok || gotAt != wantAt {
		t.Fatalf("ControlMessageTo = (%v, %v), want (%v, true)", gotAt, ok, wantAt)
	}
	if a.OverheadByteHops() != b.OverheadByteHops() {
		t.Fatalf("byte-hops diverge: %d vs %d", a.OverheadByteHops(), b.OverheadByteHops())
	}
	if a.LinkBytes(1, 2) != b.LinkBytes(1, 2) {
		t.Fatalf("link bytes diverge")
	}
}

func TestControlMessageToStopsAtDownLink(t *testing.T) {
	cfg := Config{HopDelay: 10 * time.Millisecond, LinkBandwidthBps: 1000}
	nw, _ := New(cfg, 5, nil)
	nw.SetLinkDown(1, 2, true)
	at, ok := nw.ControlMessageTo(time.Second, path(0, 1, 2, 3), 200)
	if ok {
		t.Fatal("message crossed a down link")
	}
	// One hop (0->1) charged, then stranded at node 1.
	if want := time.Second + 10*time.Millisecond; at != want {
		t.Fatalf("stranded arrival = %v, want %v", at, want)
	}
	if got := nw.OverheadByteHops(); got != 200 {
		t.Fatalf("overhead byte-hops = %d, want 200 (partial charge)", got)
	}
	if got := nw.LinkBytes(1, 2); got != 0 {
		t.Fatalf("bytes on the cut link = %d, want 0", got)
	}
	// Lost at the first hop: nothing charged at all.
	nw2, _ := New(cfg, 5, nil)
	nw2.SetLinkDown(0, 1, true)
	at, ok = nw2.ControlMessageTo(time.Second, path(0, 1, 2), 200)
	if ok || at != time.Second || nw2.OverheadByteHops() != 0 {
		t.Fatalf("first-hop cut: (%v, %v, %d B·h), want (1s, false, 0)", at, ok, nw2.OverheadByteHops())
	}
	// Restoring the link restores full delivery.
	nw.SetLinkDown(1, 2, false)
	if _, ok := nw.ControlMessageTo(0, path(0, 1, 2, 3), 200); !ok {
		t.Fatal("restored path should deliver")
	}
}
