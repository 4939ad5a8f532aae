package trace

import (
	"strings"
	"testing"
	"time"

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
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 5 {
		t.Fatalf("Count = %d, want 5", w.Count())
	}
	events, err := Read(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 5 {
		t.Fatalf("read %d events, want 5", len(events))
	}
	if events[0].Kind != "migrate" || events[0].T != 10 || events[0].Move != "geo" {
		t.Errorf("event 0 = %+v", events[0])
	}
	if events[1].Kind != "replicate" || events[1].Move != "load" {
		t.Errorf("event 1 = %+v", events[1])
	}
	if events[2].Kind != "drop" || events[2].From != 8 {
		t.Errorf("event 2 = %+v", events[2])
	}
	if events[3].Kind != "refuse" || events[3].Method != "MIGRATE" {
		t.Errorf("event 3 = %+v", events[3])
	}
	if events[4].Kind != "defer" || events[4].To != 14 || events[4].Method != "REPLICATE" {
		t.Errorf("event 4 = %+v", events[4])
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("{\"t\":1}\nnot json\n")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestSummarize(t *testing.T) {
	events := []Event{
		{Kind: "migrate", Move: "geo", From: 1, Object: 10},
		{Kind: "migrate", Move: "load", From: 1, Object: 10},
		{Kind: "replicate", Move: "geo", From: 2, Object: 11},
		{Kind: "drop", From: 3, Object: 10},
		{Kind: "refuse", From: 1, Object: 12},
	}
	s := Summarize(events)
	if s.Migrations != 2 || s.Replications != 1 || s.Drops != 1 || s.Refusals != 1 {
		t.Fatalf("summary = %+v", s)
	}
	if s.GeoMoves != 2 || s.LoadMoves != 1 {
		t.Fatalf("move counts = %d/%d, want 2/1", s.GeoMoves, s.LoadMoves)
	}
	if s.ByHost[1] != 3 {
		t.Errorf("ByHost[1] = %d, want 3", s.ByHost[1])
	}
	if s.ByObject[10] != 3 {
		t.Errorf("ByObject[10] = %d, want 3", s.ByObject[10])
	}
}
