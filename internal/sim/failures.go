package sim

import (
	"fmt"
	"sort"
	"time"

	"radar/internal/fault"
	"radar/internal/object"
	"radar/internal/topology"
)

// scheduleFaults expands the fault spec into a timeline and arms every
// event. Fault handling is an extension beyond the paper (which targets
// performance, not availability, §1.1). A host crash is a process failure,
// not a link cut: the co-located router stays up, so routing is
// unaffected. The timeline is the one the live chaos plan deals
// (Spec.Expand), expanded up front from the reserved fault stream, so
// enabling faults never perturbs request randomness and the timeline is
// independent of experiment parallelism. When the timeline contains link
// events, the request path gains severed-link checks and every redirector
// gets a reachability filter; fault-free runs skip all of it, keeping the
// hot path bit-identical to a build without fault injection.
func (s *Simulation) scheduleFaults() error {
	spec := s.cfg.Faults
	if !spec.Enabled() {
		return nil
	}
	timeline, err := spec.Expand(s.topo, s.cfg.Duration, s.cfg.Seed)
	if err != nil {
		return fmt.Errorf("sim: building fault timeline: %w", err)
	}
	for _, ev := range timeline {
		var fire func(now time.Duration)
		switch ev.Kind {
		case fault.HostDown:
			fire = func(now time.Duration) { s.markDown(now, ev.Node) }
		case fault.HostUp:
			fire = func(now time.Duration) { s.recoverHost(now, ev.Node) }
		case fault.LinkDown:
			s.haveLinkFaults = true
			fire = func(now time.Duration) { s.failLink(now, ev.A, ev.B) }
		case fault.LinkUp:
			s.haveLinkFaults = true
			fire = func(now time.Duration) { s.recoverLink(now, ev.A, ev.B) }
		}
		if err := s.engine.Schedule(ev.At, fire); err != nil {
			return fmt.Errorf("sim: scheduling fault event: %w", err)
		}
	}
	if s.haveLinkFaults {
		// Redirectors fail requests over to replicas whose forwarding path
		// is intact; when no recorded replica is reachable the request
		// fails (counted by dispatch).
		for _, red := range s.mem.redirectors {
			loc := red.Location
			red.SetReachable(func(h topology.NodeID) bool {
				return s.net.PathUp(s.routes.Path(loc, h))
			})
		}
	}
	return nil
}

// openOutage starts object id's outage window at now, unless one is
// already open: the object just lost its last recorded replica.
func (s *Simulation) openOutage(now time.Duration, id object.ID) {
	if s.outageStart == nil {
		s.outageStart = make(map[object.ID]time.Duration)
	}
	if _, open := s.outageStart[id]; !open {
		s.outageStart[id] = now
	}
}

// closeOutages closes the outage windows still open at the horizon so
// object-seconds of unavailability are complete — in sorted object order,
// because the windows accumulate into a floating-point sum and map
// iteration order would otherwise leak into the result's low bits.
func (s *Simulation) closeOutages(horizon time.Duration) {
	open := make([]object.ID, 0, len(s.outageStart))
	for id := range s.outageStart {
		open = append(open, id)
	}
	sort.Slice(open, func(i, j int) bool { return open[i] < open[j] })
	for _, id := range open {
		s.col.RecordOutageWindow(s.outageStart[id], horizon)
		delete(s.outageStart, id)
	}
}

// recoverHost brings the node back and re-registers the replicas that
// survived on its disk, closing outage windows its replicas end.
func (s *Simulation) recoverHost(now time.Duration, n topology.NodeID) {
	if !s.down[n] {
		return
	}
	s.down[n] = false
	s.recoveries++
	h := s.mem.machines[n].Host
	h.OnRecover(now)
	h.EachObject(func(id object.ID, aff int) {
		s.mem.redirectorFor(id).NotifyReplicaChange(id, n, aff)
		if start, open := s.outageStart[id]; open {
			s.col.RecordOutageWindow(start, now)
			delete(s.outageStart, id)
		}
	})
}

// failLink cuts the undirected link a-b: traffic whose path crosses it is
// dropped until restoration (routing tables are immutable, so there is no
// rerouting — the model of a partition, not of convergence).
func (s *Simulation) failLink(_ time.Duration, a, b topology.NodeID) {
	if s.net.LinkIsDown(a, b) {
		return
	}
	s.net.SetLinkDown(a, b, true)
	s.linkFailures++
}

// recoverLink restores the undirected link a-b.
func (s *Simulation) recoverLink(_ time.Duration, a, b topology.NodeID) {
	if !s.net.LinkIsDown(a, b) {
		return
	}
	s.net.SetLinkDown(a, b, false)
	s.linkRecoveries++
}

// Down reports whether node n is currently failed.
func (s *Simulation) Down(n topology.NodeID) bool { return s.down[n] }
