package trace

import (
	"strings"
	"testing"
	"time"

	"radar/internal/metrics"
	"radar/internal/protocol"
)

func TestWriterReadRoundTrip(t *testing.T) {
	var buf strings.Builder
	w := NewWriter(&buf)
	w.OnMigrate(10*time.Second, 3, 1, 2, protocol.GeoMove)
	w.OnReplicate(20*time.Second, 4, 5, 6, protocol.LoadMove)
	w.OnDrop(30*time.Second, 7, 8)
	w.OnRefuse(40*time.Second, 9, 10, 11, protocol.Migrate)
	w.OnDefer(50*time.Second, 12, 13, 14, protocol.Replicate)
	if line, _, _ := strings.Cut(buf.String(), "\n"); line != `{"at":10000000000,"kind":"migrate","object":3,"from":1,"to":2,"move":"geo"}` {
		t.Errorf("first line %s is not the event's wire form", line)
	}
	events, err := Read(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	want := []protocol.Event{
		{At: int64(10 * time.Second), Kind: protocol.EventMigrate, Object: 3, From: 1, To: 2, Move: "geo"},
		{At: int64(20 * time.Second), Kind: protocol.EventReplicate, Object: 4, From: 5, To: 6, Move: "load"},
		{At: int64(30 * time.Second), Kind: protocol.EventDrop, Object: 7, From: 8},
		{At: int64(40 * time.Second), Kind: protocol.EventRefuse, Object: 9, From: 10, To: 11, Method: "MIGRATE"},
		{At: int64(50 * time.Second), Kind: protocol.EventDefer, Object: 12, From: 13, To: 14, Method: "REPLICATE"},
	}
	if len(events) != len(want) {
		t.Fatalf("read %d events, want %d", len(events), len(want))
	}
	for i := range want {
		if events[i] != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, events[i], want[i])
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	for _, body := range []string{
		`{"at":1,"kind":"drop"}` + "\nnot json\n",
		`{"at":1,"kind":"teleport"}`,
		`{"at":1,"kind":"migrate","move":"sideways"}`,
	} {
		if _, err := Read(strings.NewReader(body)); err == nil {
			t.Errorf("garbage %q accepted", body)
		}
	}
}

func TestSummarize(t *testing.T) {
	events := []protocol.Event{
		{Kind: "migrate", Move: "geo", From: 1, Object: 10},
		{Kind: "migrate", Move: "load", From: 1, Object: 10},
		{Kind: "replicate", Move: "geo", From: 2, Object: 11},
		{Kind: "replicate", Move: "repair", From: 2, Object: 13},
		{Kind: "drop", From: 3, Object: 10},
		{Kind: "refuse", From: 1, Object: 12},
		{Kind: "defer", From: 4, Object: 12},
	}
	s := Summarize(events)
	want := metrics.Counters{
		GeoMigrations: 1, LoadMigrations: 1, GeoReplications: 1, RepairReplications: 1,
		Drops: 1, Refusals: 1, DeferredMoves: 1,
	}
	if s.Counters != want {
		t.Fatalf("counters = %+v, want %+v", s.Counters, want)
	}
	if s.ByHost[1] != 3 {
		t.Errorf("ByHost[1] = %d, want 3", s.ByHost[1])
	}
	if s.ByObject[10] != 3 {
		t.Errorf("ByObject[10] = %d, want 3", s.ByObject[10])
	}
}
