package trace

import (
	"strings"
	"testing"
	"time"

	"radar/internal/object"
	"radar/internal/protocol"
	"radar/internal/topology"
	"radar/internal/workload"
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

func TestRecordingAndReplay(t *testing.T) {
	u := object.Universe{Count: 100, SizeBytes: 1}
	inner, err := workload.NewZipf(u)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecording(inner, 0)
	rng := workload.Stream(1, 0)
	want := make([]object.ID, 0, 500)
	for i := 0; i < 500; i++ {
		want = append(want, rec.Next(topology.NodeID(i%5), rng))
	}
	if len(rec.Log()) != 500 {
		t.Fatalf("log = %d entries, want 500", len(rec.Log()))
	}

	rep, err := NewReplay("replayed", rec.Log())
	if err != nil {
		t.Fatal(err)
	}
	// Replaying gateway g's stream reproduces exactly its recorded
	// subsequence, in order.
	rng2 := workload.Stream(2, 0)
	for g := 0; g < 5; g++ {
		var recorded []object.ID
		for i, r := range rec.Log() {
			if r.Gateway == topology.NodeID(g) {
				recorded = append(recorded, r.Object)
				_ = i
			}
		}
		for i, wantID := range recorded {
			got := rep.Next(topology.NodeID(g), rng2)
			if got != wantID {
				t.Fatalf("gateway %d replay[%d] = %d, want %d", g, i, got, wantID)
			}
		}
	}
	// Cycling: next draw equals the first recorded one again.
	first := rec.Log()[0]
	if got := rep.Next(first.Gateway, rng2); got != first.Object {
		t.Fatalf("cycle draw = %d, want %d", got, first.Object)
	}
	// Unrecorded gateway falls back to the global mix without panicking.
	if id := rep.Next(topology.NodeID(50), rng2); id < 0 || int(id) >= u.Count {
		t.Fatalf("fallback object %d out of range", id)
	}
	_ = want
}

func TestRecordingLimit(t *testing.T) {
	u := object.Universe{Count: 10, SizeBytes: 1}
	inner, err := workload.NewUniform(u)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecording(inner, 3)
	rng := workload.Stream(1, 0)
	for i := 0; i < 10; i++ {
		rec.Next(0, rng)
	}
	if len(rec.Log()) != 3 {
		t.Fatalf("log = %d entries, want capped 3", len(rec.Log()))
	}
}

func TestRequestsCSVRoundTrip(t *testing.T) {
	log := []Request{{Gateway: 3, Object: 42}, {Gateway: 0, Object: 7}}
	var buf strings.Builder
	if err := WriteRequests(&buf, log); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRequests(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != log[0] || got[1] != log[1] {
		t.Fatalf("round trip = %v, want %v", got, log)
	}
}

func TestReadRequestsErrors(t *testing.T) {
	cases := []string{"nocomma", "x,1", "1,y"}
	for _, c := range cases {
		if _, err := ReadRequests(strings.NewReader(c)); err == nil {
			t.Errorf("input %q accepted", c)
		}
	}
	// Blank lines are tolerated.
	got, err := ReadRequests(strings.NewReader("\n1,2\n\n"))
	if err != nil || len(got) != 1 {
		t.Fatalf("blank-line handling: %v, %v", got, err)
	}
}

func TestNewReplayEmpty(t *testing.T) {
	if _, err := NewReplay("x", nil); err == nil {
		t.Fatal("empty log accepted")
	}
}
