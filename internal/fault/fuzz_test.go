package fault

import (
	"testing"
	"time"

	"radar/internal/topology"
	"radar/internal/workload"
)

// FuzzFaultSchedule drives the schedule parser and timeline expansion with
// arbitrary input: parsing must never panic, and every schedule that
// parses and validates must expand into a sorted timeline with well-formed
// crash/recover pairs (CheckTimeline).
func FuzzFaultSchedule(f *testing.F) {
	for _, seed := range []string{
		"",
		"crash:7@5m+3m",
		"crash:7@5m+3m; crash:12@10m",
		"link:3-4@8m+90s",
		"link:3-9@8m+90s",
		"mtbf:20m; mttr:2m",
		"linkmtbf:30m; linkmttr:1m",
		"crash:0@0s+1ms; link:0-1@0s+1ms; mtbf:1m; mttr:1s; linkmtbf:1m; linkmttr:1s",
		"crash:7@5m+3m; crash:7@6m+3m",
		"CRASH:1@1m; LINK:2-1@2m",
		"crash:-1@1m",
		"mtbf:1ns; mttr:1ns",
		"mtbf:20m; mttr:2m; mtbf:10m", // duplicate scalar key — rejected
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseSchedule(s)
		if err != nil {
			return // rejected input is fine; it just must not panic
		}
		const numNodes = 16
		if err := spec.Validate(numNodes); err != nil {
			return // e.g. node index beyond the fuzz topology
		}
		checkScheduleRoundTrip(t, s, spec, numNodes)
	})
}

// FuzzCtrlSchedule targets the message-fault clauses (drop/dup/cdelay) of
// the schedule DSL: parsing must never panic, any spec that parses and
// validates must carry in-range message terms, and mixing message faults
// with crash/cut clauses must not corrupt the timeline invariants.
func FuzzCtrlSchedule(f *testing.F) {
	for _, seed := range []string{
		"drop:0.2",
		"drop:0.2; dup:0.1; cdelay:20ms",
		"drop:0; dup:0; cdelay:0s",
		"drop:1; dup:1; cdelay:1h",
		"cdelay:50ms",
		"dup:0.05",
		"drop:0.5; crash:7@5m+3m; mtbf:20m; mttr:2m",
		"drop:1.5",
		"drop:-0.1",
		"drop:NaN",
		"cdelay:-10ms",
		"DROP:0.3; DUP:0.3",
		"drop:0.2;drop:0.9",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseSchedule(s)
		if err != nil {
			return // rejected input is fine; it just must not panic
		}
		if spec.MsgDrop < 0 || spec.MsgDrop > 1 || spec.MsgDrop != spec.MsgDrop {
			t.Fatalf("parsed drop probability %v out of [0,1] for %q", spec.MsgDrop, s)
		}
		if spec.MsgDup < 0 || spec.MsgDup > 1 || spec.MsgDup != spec.MsgDup {
			t.Fatalf("parsed dup probability %v out of [0,1] for %q", spec.MsgDup, s)
		}
		if spec.MsgDelay < 0 {
			t.Fatalf("parsed message delay %v negative for %q", spec.MsgDelay, s)
		}
		if spec.HasMessageFaults() && spec.MsgDrop == 0 && spec.MsgDup == 0 && spec.MsgDelay == 0 {
			t.Fatalf("HasMessageFaults true with all-zero terms for %q", s)
		}
		const numNodes = 16
		if err := spec.Validate(numNodes); err != nil {
			return // e.g. node index beyond the fuzz topology
		}
		checkScheduleRoundTrip(t, s, spec, numNodes)
	})
}

// checkScheduleRoundTrip expands a validated spec over a line topology and
// asserts the timeline invariants and timeline determinism.
func checkScheduleRoundTrip(t *testing.T, s string, spec Spec, numNodes int) {
	t.Helper()
	edges := make([][2]topology.NodeID, 0, numNodes-1)
	for i := 0; i < numNodes-1; i++ {
		edges = append(edges, [2]topology.NodeID{topology.NodeID(i), topology.NodeID(i + 1)})
	}
	tl, err := spec.Timeline(numNodes, edges, 30*time.Minute, workload.Stream(1, 0))
	if err != nil {
		return // e.g. a scripted link event naming a non-edge of the line
	}
	if err := CheckTimeline(tl); err != nil {
		t.Fatalf("timeline invariant violated for %q: %v", s, err)
	}
	// Same inputs must reproduce the same timeline.
	tl2, err := spec.Timeline(numNodes, edges, 30*time.Minute, workload.Stream(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(tl) != len(tl2) {
		t.Fatalf("timeline not deterministic: %d vs %d events", len(tl), len(tl2))
	}
	for i := range tl {
		if tl[i] != tl2[i] {
			t.Fatalf("timeline not deterministic at %d: %+v vs %+v", i, tl[i], tl2[i])
		}
	}
}
