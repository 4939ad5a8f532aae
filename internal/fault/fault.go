// Package fault is a deterministic, seed-driven fault-injection engine
// for the simulator: it turns a declarative schedule — scripted host
// crashes and link cuts, and/or stochastic MTBF/MTTR exponentials — into a
// sorted, well-formed event timeline the simulation schedules into its
// event heap before the run starts.
//
// Determinism contract: stochastic draws come from a *rand.Rand the caller
// derives from the run's master seed on a stream reserved for faults, so
// (a) two runs with equal seeds produce bit-identical timelines, and
// (b) enabling faults never perturbs the request streams — a zero-fault
// schedule leaves the simulation bit-identical to a build without this
// package.
//
// The paper's protocol (§1.1) targets performance, not availability;
// fault injection is an extension that exercises the redirector's
// replica-set bookkeeping, the placement protocol's reaction to lost
// capacity, and the §2.1 estimate-retirement machinery under churn.
package fault

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"radar/internal/topology"
)

// Kind labels a timeline event.
type Kind uint8

// Event kinds. At equal times, events apply in Kind order: a host goes
// down before it comes up, and host events precede link events.
const (
	// HostDown crashes a hosting server: its replicas are purged from the
	// redirectors and it accepts no requests or CreateObj calls until the
	// matching HostUp.
	HostDown Kind = iota + 1
	// HostUp recovers a crashed server; replicas surviving on its disk
	// re-register with the redirectors.
	HostUp
	// LinkDown cuts a backbone link (both directions). Routing tables are
	// immutable (a frozen substrate shared across runs), so traffic whose
	// path crosses a down link is lost rather than rerouted — the model of
	// a partition, not of routing convergence.
	LinkDown
	// LinkUp restores a cut link.
	LinkUp
)

// String returns the kind's schedule name.
func (k Kind) String() string {
	switch k {
	case HostDown:
		return "host-down"
	case HostUp:
		return "host-up"
	case LinkDown:
		return "link-down"
	case LinkUp:
		return "link-up"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one scheduled fault or repair.
type Event struct {
	// Kind selects what happens.
	Kind Kind
	// At is the virtual time the event fires.
	At time.Duration
	// Node is the affected host (host events only).
	Node topology.NodeID
	// A, B are the affected link's endpoints, normalized A < B (link
	// events only).
	A, B topology.NodeID
}

// String renders the event for logs: "4s host-down node 2", "1s link-up 0-1".
func (e Event) String() string {
	if e.Kind == HostDown || e.Kind == HostUp {
		return fmt.Sprintf("%v %s node %d", e.At, e.Kind, e.Node)
	}
	return fmt.Sprintf("%v %s %d-%d", e.At, e.Kind, e.A, e.B)
}

// Spec is a declarative fault schedule: explicit scripted events plus
// optional stochastic crash/recovery cycles. The zero value disables
// injection entirely.
type Spec struct {
	// Events are scripted faults. A HostDown (or LinkDown) without a
	// matching later up-event is permanent.
	Events []Event
	// HostMTBF, when positive, draws each host's time-between-failures
	// from an exponential with this mean; HostMTTR (must then also be
	// positive) is the mean time-to-repair.
	HostMTBF time.Duration
	HostMTTR time.Duration
	// LinkMTBF/LinkMTTR are the link-failure analogues, applied to every
	// backbone edge.
	LinkMTBF time.Duration
	LinkMTTR time.Duration

	// Message-fault terms arm the unreliable control plane: when any is
	// non-zero, every control RPC leg (CreateObj handshakes, redirector
	// notifications, drop arbitration, reconciliation digests) is routed
	// through the lossy message layer instead of resolving reliably.
	// Draws come from a PRNG stream reserved for control messages
	// (disjoint from both the workload streams and the fault-timeline
	// stream), so arming them never perturbs request randomness or crash
	// timelines, and an all-zero set of terms leaves the run bit-identical
	// to a build without the control-plane subsystem.
	//
	// MsgDrop is the probability in [0,1] that a control message leg is
	// lost in transit (schedule clause "drop:P").
	MsgDrop float64
	// MsgDup is the probability in [0,1] that a delivered leg is
	// duplicated — the copy is charged to the network and absorbed by the
	// receiver's message-ID dedupe (clause "dup:P").
	MsgDup float64
	// MsgDelay adds an extra delay drawn uniformly from [0, MsgDelay] to
	// every delivered leg, on top of propagation (clause "cdelay:D").
	// Delays past the per-attempt timeout surface as RPC timeouts.
	MsgDelay time.Duration
}

// Enabled reports whether the spec injects host or link faults. Message
// faults are reported separately by HasMessageFaults: they arm the
// control-plane subsystem, not the crash/cut timeline.
func (s *Spec) Enabled() bool {
	return len(s.Events) > 0 || s.HostMTBF > 0 || s.LinkMTBF > 0
}

// HasMessageFaults reports whether the spec arms the unreliable control
// plane. All-zero message terms (e.g. a bare "drop:0" clause) do not: a
// zero-probability schedule is byte-equal to no schedule.
func (s *Spec) HasMessageFaults() bool {
	return s.MsgDrop > 0 || s.MsgDup > 0 || s.MsgDelay > 0
}

// HasLinkFaults reports whether the spec can produce link events.
func (s *Spec) HasLinkFaults() bool {
	if s.LinkMTBF > 0 {
		return true
	}
	for _, e := range s.Events {
		if e.Kind == LinkDown || e.Kind == LinkUp {
			return true
		}
	}
	return false
}

// Validate checks the spec against a topology of numNodes nodes.
func (s *Spec) Validate(numNodes int) error {
	for i, e := range s.Events {
		if e.At < 0 {
			return fmt.Errorf("fault: event %d at negative time %v", i, e.At)
		}
		switch e.Kind {
		case HostDown, HostUp:
			if int(e.Node) < 0 || int(e.Node) >= numNodes {
				return fmt.Errorf("fault: event %d names unknown node %d", i, e.Node)
			}
		case LinkDown, LinkUp:
			if int(e.A) < 0 || int(e.A) >= numNodes || int(e.B) < 0 || int(e.B) >= numNodes {
				return fmt.Errorf("fault: event %d names unknown link %d-%d", i, e.A, e.B)
			}
			if e.A == e.B {
				return fmt.Errorf("fault: event %d links node %d to itself", i, e.A)
			}
		default:
			return fmt.Errorf("fault: event %d has unknown kind %d", i, e.Kind)
		}
	}
	if s.HostMTBF < 0 || s.HostMTTR < 0 || s.LinkMTBF < 0 || s.LinkMTTR < 0 {
		return fmt.Errorf("fault: MTBF/MTTR values must be non-negative")
	}
	// Sub-second failure cycles would swamp a simulation of minutes with
	// millions of fault events; treat them as configuration errors.
	if s.HostMTBF > 0 && s.HostMTBF < time.Second {
		return fmt.Errorf("fault: host MTBF %v must be at least 1s", s.HostMTBF)
	}
	if s.LinkMTBF > 0 && s.LinkMTBF < time.Second {
		return fmt.Errorf("fault: link MTBF %v must be at least 1s", s.LinkMTBF)
	}
	if s.HostMTBF > 0 && s.HostMTTR <= 0 {
		return fmt.Errorf("fault: host MTBF %v needs a positive MTTR", s.HostMTBF)
	}
	if s.LinkMTBF > 0 && s.LinkMTTR <= 0 {
		return fmt.Errorf("fault: link MTBF %v needs a positive MTTR", s.LinkMTBF)
	}
	if s.MsgDrop < 0 || s.MsgDrop > 1 {
		return fmt.Errorf("fault: message drop probability %v must be in [0,1]", s.MsgDrop)
	}
	if s.MsgDup < 0 || s.MsgDup > 1 {
		return fmt.Errorf("fault: message duplication probability %v must be in [0,1]", s.MsgDup)
	}
	if s.MsgDelay < 0 {
		return fmt.Errorf("fault: message delay %v must be non-negative", s.MsgDelay)
	}
	return nil
}

// Timeline expands the spec into a sorted, well-formed event sequence for
// a run of the given horizon over numNodes nodes and the given undirected
// edges (each with first endpoint < second; required whenever the spec has
// link faults — scripted link events naming non-edges are rejected).
// Stochastic cycles draw from rng in a fixed element order, so equal
// (spec, rng state) inputs yield identical timelines; rng may be nil when
// no MTBF is set.
//
// Well-formedness: per element (host or link), events strictly alternate
// down, up, down, ... starting from the up state; redundant scripted
// events (crashing a crashed host) are dropped. Down events may extend
// past the horizon (a permanent failure's recovery simply never fires);
// every stochastic down is still paired with its up so the timeline is
// self-describing.
func (s *Spec) Timeline(numNodes int, edges [][2]topology.NodeID, horizon time.Duration, rng *rand.Rand) ([]Event, error) {
	if err := s.Validate(numNodes); err != nil {
		return nil, err
	}
	// Scripted link events must name real backbone edges: a cut on a
	// non-adjacent pair would silently affect nothing (no path crosses
	// it), which is a schedule typo, not a fault model.
	var edgeSet map[[2]topology.NodeID]bool
	if s.HasLinkFaults() {
		edgeSet = make(map[[2]topology.NodeID]bool, len(edges))
		for _, edge := range edges {
			edgeSet[edge] = true
		}
	}
	var events []Event
	for _, e := range s.Events {
		if e.Kind == LinkDown || e.Kind == LinkUp {
			if e.A > e.B {
				e.A, e.B = e.B, e.A
			}
			if !edgeSet[[2]topology.NodeID{e.A, e.B}] {
				return nil, fmt.Errorf("fault: scripted event cuts %d-%d, which is not a backbone link", e.A, e.B)
			}
		}
		events = append(events, e)
	}
	if s.HostMTBF > 0 {
		if rng == nil {
			return nil, fmt.Errorf("fault: stochastic schedule needs an rng")
		}
		for n := 0; n < numNodes; n++ {
			events = appendCycles(events, horizon, s.HostMTBF, s.HostMTTR, rng,
				func(at time.Duration, k Kind) Event { return Event{Kind: k, At: at, Node: topology.NodeID(n)} },
				HostDown, HostUp)
		}
	}
	if s.LinkMTBF > 0 {
		if rng == nil {
			return nil, fmt.Errorf("fault: stochastic schedule needs an rng")
		}
		for _, edge := range edges {
			a, b := edge[0], edge[1]
			events = appendCycles(events, horizon, s.LinkMTBF, s.LinkMTTR, rng,
				func(at time.Duration, k Kind) Event { return Event{Kind: k, At: at, A: a, B: b} },
				LinkDown, LinkUp)
		}
	}
	sortEvents(events)
	return sanitize(events), nil
}

// appendCycles draws alternating down/up cycles out to the horizon.
func appendCycles(events []Event, horizon, mtbf, mttr time.Duration, rng *rand.Rand,
	mk func(time.Duration, Kind) Event, down, up Kind) []Event {
	t := time.Duration(0)
	for {
		t += time.Duration(rng.ExpFloat64() * float64(mtbf))
		if t > horizon || t <= 0 {
			return events
		}
		repair := time.Duration(rng.ExpFloat64() * float64(mttr))
		if repair < time.Millisecond {
			repair = time.Millisecond
		}
		events = append(events, mk(t, down), mk(t+repair, up))
		t += repair
	}
}

// sortEvents orders the timeline by (At, Kind, element), a total and
// deterministic order.
func sortEvents(events []Event) {
	sort.Slice(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.A != b.A {
			return a.A < b.A
		}
		return a.B < b.B
	})
}

// sanitize drops events that do not change their element's state (a down
// while down, an up while up), so the returned timeline strictly
// alternates per element.
func sanitize(events []Event) []Event {
	type elem struct {
		link bool
		n    topology.NodeID
		a, b topology.NodeID
	}
	downState := make(map[elem]bool)
	kept := events[:0]
	for _, e := range events {
		var el elem
		var wantDown bool
		switch e.Kind {
		case HostDown, HostUp:
			el = elem{n: e.Node}
			wantDown = e.Kind == HostDown
		default:
			el = elem{link: true, a: e.A, b: e.B}
			wantDown = e.Kind == LinkDown
		}
		if downState[el] == wantDown {
			continue
		}
		downState[el] = wantDown
		kept = append(kept, e)
	}
	return kept
}
