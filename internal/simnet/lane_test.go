package simnet

import (
	"testing"
)

// TestLaneAccountingMerges checks a lane records traffic against its own
// recorder only, so merging the parent's and the lanes' recorders gives
// the accounting of a single-network run.
func TestLaneAccountingMerges(t *testing.T) {
	cfg := DefaultConfig()
	direct, parentRec, laneRec := &recSink{}, &recSink{}, &recSink{}
	nw, err := New(cfg, 4, direct)
	if err != nil {
		t.Fatal(err)
	}
	parent, err := New(cfg, 4, parentRec)
	if err != nil {
		t.Fatal(err)
	}
	lane := parent.Lane(laneRec)

	nw.Transfer(0, path(0, 1, 2), 100, Payload)
	nw.Transfer(0, path(2, 3), 50, Overhead)
	parent.Transfer(0, path(0, 1, 2), 100, Payload)
	lane.Transfer(0, path(2, 3), 50, Overhead)

	if got := parentRec.byteHops(Overhead); got != 0 {
		t.Fatalf("lane traffic leaked into the parent's recorder: %d", got)
	}
	for _, c := range []Class{Payload, Overhead} {
		if got, want := parentRec.byteHops(c)+laneRec.byteHops(c), direct.byteHops(c); got != want {
			t.Errorf("%v byte-hops %d, want %d", c, got, want)
		}
	}
}

// TestLaneSharesLinkState checks link up/down state is shared between a
// network and its lanes: the fault plane flips links on the parent and
// every lane's path checks must observe it.
func TestLaneSharesLinkState(t *testing.T) {
	parent, err := New(DefaultConfig(), 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	lane := parent.Lane(nil)
	parent.SetLinkDown(1, 2, true)
	if lane.PathUp(path(0, 1, 2)) {
		t.Error("lane did not observe link 1-2 down")
	}
	// SetLinkDown cuts both directions, so one undirected cut is two
	// directed down links.
	if !lane.LinkIsDown(1, 2) || lane.links.downLinks != 2 {
		t.Error("lane link-state accessors out of sync with parent")
	}
	parent.SetLinkDown(1, 2, false)
	if !lane.PathUp(path(0, 1, 2)) {
		t.Error("lane did not observe link 1-2 recovery")
	}
}

// TestLaneRefusesContention pins the documented restriction: lanes carry
// no shared busy-until state, so a contended network cannot shard.
func TestLaneRefusesContention(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Contention = true
	nw, err := New(cfg, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Lane() on a contended network did not panic")
		}
	}()
	nw.Lane(nil)
}
