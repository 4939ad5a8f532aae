package sim

import (
	"fmt"
	"time"

	"radar/internal/consistency"
	"radar/internal/object"
	"radar/internal/protocol"
	"radar/internal/store"
	"radar/internal/topology"
)

// memFleet is the in-memory Fleet: one Machine per node and one redirector
// per location, all plain structs called directly. It is the fleet the
// paper's simulation runs on, and the only one behind which the remaining
// optional subsystems work — scripted faults, the lossy control plane,
// link contention, the sharded serve plane — because each of them reaches
// into this state or the loop's directly (failures.go, ctrl.go, shards.go).
type memFleet struct {
	s           *Simulation
	machines    []*Machine
	redirectors []*protocol.Redirector
	emptied     []object.ID // MarkDown's buffer for PurgeHost
}

// newMemFleet builds the fleet for s: redirectors at s.redLocs, the control
// plane if armed, one machine per node sharing one handshake transport
// (sendCreateObj) and one category gate, and the initial placement.
func newMemFleet(s *Simulation) (*memFleet, error) {
	f := &memFleet{
		s:           s,
		machines:    make([]*Machine, s.topo.NumNodes()),
		redirectors: make([]*protocol.Redirector, len(s.redLocs)),
	}
	s.mem = f
	var err error
	for i := range s.redLocs {
		if f.redirectors[i], err = NewRedirector(&s.cfg, s.routes, s.redLocs, i); err != nil {
			return nil, err
		}
	}
	if err := s.armCtrlPlane(); err != nil {
		return nil, err
	}
	env := protocol.Env{
		Routes: s.routes,
		RedirectorFor: func(id object.ID) protocol.RedirectorControl {
			if s.ctrl != nil {
				return &s.ctrl.redirWrap[RedirectorIndex(id, len(s.redLocs))]
			}
			return f.redirectorFor(id)
		},
		LoadReport: func(p topology.NodeID, now time.Duration, id object.ID) (protocol.LoadReport, bool) {
			if s.down[p] {
				return protocol.LoadReport{}, false
			}
			return f.machines[p].Host.LoadReport(now, id), true
		},
		CanReplicate:  consistency.Gate(s.cfg.Universe, s.cfg.Consistency, s.cfg.Seed),
		SendCreateObj: f.sendCreateObj,
		Observer:      s.record,
	}
	for i := range f.machines {
		if f.machines[i], err = NewMachine(&s.cfg, topology.NodeID(i), env); err != nil {
			return nil, err
		}
	}
	SeedPlacement(&s.cfg, f.machines, f.redirectors)
	return f, nil
}

// sendCreateObj implements protocol.Env.SendCreateObj: a failed host
// accepts nothing and is sent nothing; otherwise the handshake runs over
// the lossy control plane when one is armed, else inline and reliably at
// now — the paper's instantaneous model.
func (f *memFleet) sendCreateObj(now time.Duration, req protocol.CreateObjRequest, token uint64) (protocol.CreateObjStatus, uint64, time.Duration) {
	switch {
	case f.s.down[req.To]:
		return protocol.CreateDown, token, now
	case f.s.ctrl != nil:
		return f.s.callCreateObj(now, req, token)
	case f.machines[req.To].Host.CreateObj(now, req):
		return protocol.CreateAccepted, 0, now
	}
	return protocol.CreateRefused, 0, now
}

// redirectorFor maps an object to its responsible redirector.
func (f *memFleet) redirectorFor(id object.ID) *protocol.Redirector {
	return f.redirectors[RedirectorIndex(id, len(f.redirectors))]
}

// Choose implements Fleet.
func (f *memFleet) Choose(_ time.Duration, red int, g topology.NodeID, id object.ID) (topology.NodeID, Outcome) {
	h, err := f.redirectors[red].ChooseReplica(g, id)
	if err != nil {
		// Every copy was purged by crashes, or the reachability filter
		// excluded them all. Only faults produce this.
		return 0, Refused
	}
	return h, OK
}

// Admit implements Fleet.
func (f *memFleet) Admit(now time.Duration, h, _ topology.NodeID, id object.ID) (time.Duration, Outcome) {
	return f.machines[h].Admit(now, id)
}

// Complete implements Fleet.
func (f *memFleet) Complete(h, g topology.NodeID, id object.ID) bool {
	f.machines[h].Complete(id, g)
	return true
}

// Measure implements Fleet. A crashed host's model keeps closing (empty)
// intervals, so its load decays to zero instead of freezing.
func (f *memFleet) Measure(now time.Duration, h topology.NodeID) (actual, lower, upper float64, ok bool) {
	actual, lower, upper = f.machines[h].Measure(now)
	return actual, lower, upper, true
}

// Place implements Fleet.
func (f *memFleet) Place(now time.Duration, h topology.NodeID) bool {
	f.machines[h].Host.DecidePlacement(now)
	return true
}

// Census implements Fleet. The simulated redirector is a process of its
// own that outlives a crash of the host on its node (failures.go), so it
// always answers.
func (f *memFleet) Census(red int) (total, below int, ok bool) {
	c := Census(&f.s.cfg, f.redirectors[red])
	return c.TotalReplicas, c.BelowFloor, true
}

// MarkDown implements Fleet: the crash wipes the host's in-memory control
// state and purges its replicas from every redirector. Objects left with
// zero recorded replicas open an outage window.
func (f *memFleet) MarkDown(now time.Duration, n topology.NodeID) {
	f.machines[n].Host.OnCrash()
	for _, red := range f.redirectors {
		f.emptied = red.PurgeHost(n, f.emptied)
		for _, id := range f.emptied {
			f.s.openOutage(now, id)
		}
	}
}

// Stats implements Fleet.
func (f *memFleet) Stats(r *Results) {
	r.HostStats = make([]protocol.HostStats, len(f.machines))
	for i, m := range f.machines {
		r.HostStats[i] = m.Host.Stats
		r.MaxQueueLen = max(r.MaxQueueLen, m.Server.MaxQueueLen())
		r.TotalServed += m.Server.TotalServed()
		r.StoreLayers = store.Aggregate(r.StoreLayers, m.Store.Stats(nil))
	}
	r.InvariantsError = f.checkInvariants()
}

// checkInvariants verifies cross-component invariants: the redirector's
// replica sets are subsets of what hosts actually hold with matching
// affinities, and every object retains at least one replica.
func (f *memFleet) checkInvariants() error {
	var hosts []topology.NodeID
	for i := 0; i < f.s.cfg.Universe.Count; i++ {
		id := object.ID(i)
		red := f.redirectorFor(id)
		hosts = red.ReplicaHosts(id, hosts)
		if len(hosts) == 0 {
			// With faults configured an object whose only replica lived
			// on a downed host is legitimately unavailable.
			if f.s.cfg.Faults.Enabled() {
				continue
			}
			return fmt.Errorf("sim: object %d has no replicas recorded", id)
		}
		for _, h := range hosts {
			aff, _ := red.RecordedAffinity(id, h)
			if got := f.machines[h].Host.Affinity(id); got != aff {
				return fmt.Errorf("sim: redirector records object %d on host %d at affinity %d, the host holds %d", id, h, aff, got)
			}
		}
	}
	return nil
}
