package sim

import (
	"fmt"
	"time"

	"radar/internal/object"
	"radar/internal/protocol"
	"radar/internal/topology"
)

// Fleet is the seam under the run loop: the machines — redirectors, FCFS
// servers, protocol hosts — the loop's schedule acts on. The loop owns
// virtual time, the generators, the periodic ticks, the network price
// model, the metrics and the down-set; a fleet only answers the calls
// below, each made at one instant of virtual time. New builds the
// in-memory fleet (memfleet.go), package live an HTTP fleet that turns
// every call into a request to a real node, fleet_test.go a scripted fake.
//
// A node that does not answer is Lost (ok=false on the control calls): the
// loop marks it down, fails the request or skips the sample, and tells the
// fleet through MarkDown. The in-memory fleet never loses a node by
// itself; its crashes are scripted (failures.go) and reach it the same
// way. Redirectors are named by their index in the loop's location list
// (objects partition by id mod their count), hosts by node ID. Under the
// sharded engine Admit and Complete run on shard workers, for disjoint
// hosts; everything else runs on the coordinator.
type Fleet interface {
	// Choose is the redirector hop: redirector red picks a replica of id
	// for a request that entered at gateway g and reached it at now.
	// Refused means no replica is choosable.
	Choose(now time.Duration, red int, g topology.NodeID, id object.ID) (topology.NodeID, Outcome)
	// Admit offers the request to host h's FCFS queue on its arrival at
	// now and returns the service completion time. Refused means the
	// queue delay exceeds the client timeout and the client gave up.
	Admit(now time.Duration, h, g topology.NodeID, id object.ID) (time.Duration, Outcome)
	// Complete reports that h finished serving the request, which is when
	// its load measurement and access counts record it.
	Complete(h, g topology.NodeID, id object.ID) (ok bool)
	// Measure closes h's load-measurement interval at now and returns its
	// measured load between the protocol's lower and upper estimates.
	Measure(now time.Duration, h topology.NodeID) (actual, lower, upper float64, ok bool)
	// Place runs h's placement pass (Fig. 3 and Fig. 5) at now; its
	// decisions reach the loop's recorder.
	Place(now time.Duration, h topology.NodeID) (ok bool)
	// Census counts the replicas redirector red records for its objects,
	// and how many of those objects sit below the replica floor.
	Census(red int) (total, below int, ok bool)
	// MarkDown tells the fleet that node h is down as of now. The loop
	// calls it once per crash.
	MarkDown(now time.Duration, h topology.NodeID)
	// Stats closes the run: the fleet reports any activity it still holds
	// to the loop's recorder and fills the fleet-side fields of r
	// (HostStats, TotalServed, MaxQueueLen, StoreLayers and, in memory, the
	// invariant sweep).
	Stats(r *Results)
}

// Outcome is a fleet's answer to a request-path call.
type Outcome uint8

// Request-path outcomes.
const (
	OK      Outcome = iota // done as asked
	Refused                // the fleet answered, and the answer is no
	Lost                   // the node did not answer, or answered garbage
)

// NewOver builds the run loop over an external fleet: connect receives the
// loop's recorder, to which the fleet hands every Event its placement
// passes report (copies included) before the loop moves on, and returns
// the fleet to drive. The schedule, the request path and the Results
// assembly are New's, so a fleet that answers like the in-memory one
// reproduces the simulation event for event. The subsystems that live in
// the loop's in-memory state, not in a fleet's nodes, are refused
// (Refusals).
func NewOver(cfg Config, connect func(protocol.Recorder) (Fleet, error)) (*Simulation, error) {
	s, err := newLoop(cfg)
	if err != nil {
		return nil, err
	}
	if r := MatchRefusal(s.cfg.Features() | ExternalFleet); r != nil {
		return nil, fmt.Errorf("sim: %s", r.Reason)
	}
	if s.fleet, err = connect(s.record); err != nil {
		return nil, err
	}
	if err := s.initLanes(); err != nil {
		return nil, err
	}
	return s, nil
}
