package fault

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"radar/internal/topology"
	"radar/internal/workload"
)

func TestParseScheduleScripted(t *testing.T) {
	spec, err := ParseSchedule("crash:7@5m+3m; link:9-3@10m+90s; crash:12@20m")
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{
		{Kind: HostDown, At: 5 * time.Minute, Node: 7},
		{Kind: HostUp, At: 8 * time.Minute, Node: 7},
		{Kind: LinkDown, At: 10 * time.Minute, A: 3, B: 9},
		{Kind: LinkUp, At: 10*time.Minute + 90*time.Second, A: 3, B: 9},
		{Kind: HostDown, At: 20 * time.Minute, Node: 12},
	}
	if !reflect.DeepEqual(spec.Events, want) {
		t.Fatalf("events = %+v, want %+v", spec.Events, want)
	}
	if !spec.Enabled() || !spec.HasLinkFaults() {
		t.Fatal("spec should be enabled with link faults")
	}
}

func TestParseScheduleStochastic(t *testing.T) {
	spec, err := ParseSchedule("mtbf:20m; mttr:2m; linkmtbf:1h; linkmttr:5m")
	if err != nil {
		t.Fatal(err)
	}
	if spec.HostMTBF != 20*time.Minute || spec.HostMTTR != 2*time.Minute {
		t.Fatalf("host mtbf/mttr = %v/%v", spec.HostMTBF, spec.HostMTTR)
	}
	if spec.LinkMTBF != time.Hour || spec.LinkMTTR != 5*time.Minute {
		t.Fatalf("link mtbf/mttr = %v/%v", spec.LinkMTBF, spec.LinkMTTR)
	}
}

func TestParseScheduleEmpty(t *testing.T) {
	spec, err := ParseSchedule("  ")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Enabled() {
		t.Fatal("empty schedule must be disabled")
	}
}

func TestParseScheduleErrors(t *testing.T) {
	for _, bad := range []string{
		"crash:7",             // no time
		"crash:x@5m",          // bad node
		"crash:7@-5m",         // negative start
		"crash:7@5m+0s",       // zero downtime
		"link:3@5m",           // missing endpoint
		"link:3-3@5m",         // self link
		"mtbf:20m",            // mtbf without mttr
		"mttr:2m",             // mttr without mtbf
		"linkmtbf:20m",        // link mtbf without mttr
		"mtbf:-5m; mttr:1m",   // negative duration
		"bogus:1@2m",          // unknown clause
		"crash 7@5m",          // missing colon
		"crash:7@5m+3m extra", // trailing junk inside clause
	} {
		if _, err := ParseSchedule(bad); err == nil {
			t.Errorf("ParseSchedule(%q) succeeded, want error", bad)
		}
	}
}

// TestParseScheduleDuplicateScalarKeys: a repeated scalar clause is a
// schedule typo, not a request for last-writer-wins — the parser rejects
// it instead of silently discarding the earlier value. Scripted crash and
// link clauses may repeat (each names a distinct event).
func TestParseScheduleDuplicateScalarKeys(t *testing.T) {
	for _, bad := range []string{
		"mtbf:20m; mttr:2m; mtbf:10m",
		"mtbf:20m; mttr:2m; mttr:3m",
		"linkmtbf:1h; linkmttr:5m; linkmtbf:30m",
		"linkmtbf:1h; linkmttr:5m; linkmttr:1m",
		"mtbf:20m; MTBF:20m; mttr:2m", // keys are case-insensitive
	} {
		if _, err := ParseSchedule(bad); err == nil {
			t.Errorf("ParseSchedule(%q) succeeded, want duplicate-key error", bad)
		}
	}
	// Repeating crash/link clauses stays legal.
	spec, err := ParseSchedule("crash:7@5m+3m; crash:7@15m; link:1-2@2m; link:1-2@9m+1m")
	if err != nil {
		t.Fatalf("repeated scripted clauses rejected: %v", err)
	}
	if len(spec.Events) != 6 {
		t.Errorf("got %d events, want 6", len(spec.Events))
	}
}

func TestValidateRejectsUnknownNodes(t *testing.T) {
	spec := Spec{Events: []Event{{Kind: HostDown, At: time.Minute, Node: 99}}}
	if err := spec.Validate(10); err == nil {
		t.Fatal("want error for out-of-range node")
	}
	spec = Spec{Events: []Event{{Kind: LinkDown, At: time.Minute, A: 1, B: 99}}}
	if err := spec.Validate(10); err == nil {
		t.Fatal("want error for out-of-range link endpoint")
	}
}

func testEdges() [][2]topology.NodeID {
	return [][2]topology.NodeID{{0, 1}, {1, 2}, {2, 3}}
}

func TestTimelineDeterministic(t *testing.T) {
	spec := Spec{HostMTBF: 10 * time.Minute, HostMTTR: time.Minute,
		LinkMTBF: 30 * time.Minute, LinkMTTR: 2 * time.Minute}
	a, err := spec.Timeline(4, testEdges(), time.Hour, workload.Stream(42, 0))
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.Timeline(4, testEdges(), time.Hour, workload.Stream(42, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("equal seeds must give identical timelines")
	}
	if len(a) == 0 {
		t.Fatal("an hour at 10m MTBF over 4 hosts should produce events")
	}
	if err := CheckTimeline(a); err != nil {
		t.Fatal(err)
	}
	c, err := spec.Timeline(4, testEdges(), time.Hour, workload.Stream(43, 0))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds should give different timelines")
	}
}

func TestTimelineSanitizesRedundantEvents(t *testing.T) {
	spec := Spec{Events: []Event{
		{Kind: HostDown, At: time.Minute, Node: 1},
		{Kind: HostDown, At: 2 * time.Minute, Node: 1}, // already down
		{Kind: HostUp, At: 3 * time.Minute, Node: 1},
		{Kind: HostUp, At: 4 * time.Minute, Node: 1}, // already up
	}}
	tl, err := spec.Timeline(4, nil, time.Hour, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tl) != 2 {
		t.Fatalf("sanitized timeline has %d events, want 2: %+v", len(tl), tl)
	}
	if err := CheckTimeline(tl); err != nil {
		t.Fatal(err)
	}
}

func TestTimelineNormalizesLinkEndpoints(t *testing.T) {
	spec := Spec{Events: []Event{{Kind: LinkDown, At: time.Minute, A: 3, B: 1}}}
	edges := [][2]topology.NodeID{{1, 3}}
	tl, err := spec.Timeline(4, edges, time.Hour, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tl) != 1 || tl[0].A != 1 || tl[0].B != 3 {
		t.Fatalf("timeline = %+v, want normalized 1-3", tl)
	}
}

func TestTimelineRejectsNonEdgeLink(t *testing.T) {
	spec := Spec{Events: []Event{{Kind: LinkDown, At: time.Minute, A: 0, B: 2}}}
	edges := [][2]topology.NodeID{{0, 1}, {1, 2}}
	if _, err := spec.Timeline(4, edges, time.Hour, nil); err == nil {
		t.Fatal("want error for scripted cut of a non-edge (it would silently affect nothing)")
	}
}

func TestTimelineStochasticNeedsRNG(t *testing.T) {
	spec := Spec{HostMTBF: time.Minute, HostMTTR: time.Second}
	if _, err := spec.Timeline(4, nil, time.Hour, nil); err == nil {
		t.Fatal("want error for stochastic spec without rng")
	}
}

func TestCheckTimelineRejectsBadSequences(t *testing.T) {
	bad := [][]Event{
		{{Kind: HostUp, At: time.Minute, Node: 1}},                                             // up while up
		{{Kind: HostDown, At: 2 * time.Minute, Node: 1}, {Kind: HostDown, At: time.Minute}},    // unsorted
		{{Kind: LinkDown, At: time.Minute, A: 3, B: 1}},                                        // unnormalized
		{{Kind: HostDown, At: time.Minute, Node: 1}, {Kind: HostDown, At: time.Hour, Node: 1}}, // down while down
		{{Kind: Kind(9), At: time.Minute}},                                                     // unknown kind
	}
	for i, tl := range bad {
		if err := CheckTimeline(tl); err == nil {
			t.Errorf("case %d: CheckTimeline accepted %+v", i, tl)
		}
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{HostDown: "host-down", HostUp: "host-up",
		LinkDown: "link-down", LinkUp: "link-up"} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

// CheckTimeline verifies a timeline's invariants: sorted by time, valid
// kinds, normalized link endpoints, and strict per-element down/up
// alternation starting from up. Timeline's output always satisfies it;
// the tests and FuzzFaultSchedule assert it.
func CheckTimeline(events []Event) error {
	type elem struct {
		link bool
		n    topology.NodeID
		a, b topology.NodeID
	}
	downState := make(map[elem]bool)
	for i, e := range events {
		if i > 0 && e.At < events[i-1].At {
			return fmt.Errorf("fault: timeline unsorted at %d: %v after %v", i, e.At, events[i-1].At)
		}
		var el elem
		var wantDown bool
		switch e.Kind {
		case HostDown, HostUp:
			el = elem{n: e.Node}
			wantDown = e.Kind == HostDown
		case LinkDown, LinkUp:
			if e.A >= e.B {
				return fmt.Errorf("fault: timeline event %d has unnormalized link %d-%d", i, e.A, e.B)
			}
			el = elem{link: true, a: e.A, b: e.B}
			wantDown = e.Kind == LinkDown
		default:
			return fmt.Errorf("fault: timeline event %d has unknown kind %d", i, e.Kind)
		}
		if downState[el] == wantDown {
			return fmt.Errorf("fault: timeline event %d (%s) does not change element state", i, e.Kind)
		}
		downState[el] = wantDown
	}
	return nil
}
