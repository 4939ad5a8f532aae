package sim

import (
	"fmt"
	"time"

	"radar/internal/object"
	"radar/internal/protocol"
	"radar/internal/server"
	"radar/internal/store"
	"radar/internal/topology"
)

// memFleet is the in-memory Fleet: one FCFS server model, protocol host and
// storage stack per node and one redirector per location, all plain
// structs called directly. It is the fleet the paper's simulation runs on,
// and the only one behind which the optional subsystems work — scripted
// faults, the lossy control plane, provider updates, storage stacks, host
// weights, the sharded serve plane — because each of them reaches into
// this state directly (failures.go, ctrl.go, updates.go, shards.go).
type memFleet struct {
	s           *Simulation
	servers     []*server.Server
	hosts       []*protocol.Host
	stores      []store.ReplicaStore // one backend stack per host
	redirectors []*protocol.Redirector
}

// newMemFleet builds the fleet for s: redirectors at s.redLocs, the control
// plane if armed, one store stack and host per node, and the initial
// placement.
func newMemFleet(s *Simulation) (*memFleet, error) {
	f := &memFleet{s: s, redirectors: make([]*protocol.Redirector, len(s.redLocs))}
	s.mem = f
	for i, loc := range s.redLocs {
		r, err := protocol.NewRedirector(loc, s.routes, s.cfg.Policy, s.cfg.Protocol.DistConstant)
		if err != nil {
			return nil, err
		}
		r.SetReplicaFloor(s.cfg.Protocol.ReplicaFloor) // clamps to the paper's last-copy rule
		f.redirectors[i] = r
	}
	if err := s.armCtrlPlane(); err != nil {
		return nil, err
	}
	var err error
	f.stores, err = s.cfg.Store.BuildAll(s.topo.NumNodes(), store.Params{
		Seed:     s.cfg.Seed,
		Horizon:  s.cfg.Duration,
		ObjBytes: int64(s.cfg.Universe.SizeBytes),
	})
	if err != nil {
		return nil, err
	}
	if err := f.buildHosts(); err != nil {
		return nil, err
	}
	f.seedPlacement()
	return f, nil
}

// redirectorFor maps an object to its responsible redirector.
func (f *memFleet) redirectorFor(id object.ID) *protocol.Redirector {
	return f.redirectors[f.s.redirectorIndex(id)]
}

func (f *memFleet) buildHosts() error {
	s := f.s
	n := s.topo.NumNodes()
	f.servers = make([]*server.Server, n)
	f.hosts = make([]*protocol.Host, n)
	var canReplicate func(object.ID, int) bool
	if s.cfg.Consistency != nil {
		canReplicate = s.cfg.Consistency.CanReplicate
	}
	for i := 0; i < n; i++ {
		weight := 1.0
		if s.cfg.HostWeights != nil {
			weight = s.cfg.HostWeights[i]
		}
		srvCfg := s.cfg.Server
		srvCfg.CapacityRPS *= weight
		srv, err := server.New(topology.NodeID(i), srvCfg)
		if err != nil {
			return err
		}
		f.servers[i] = srv
		env := protocol.Env{
			Routes: s.routes,
			RedirectorFor: func(id object.ID) protocol.RedirectorControl {
				if s.ctrl != nil {
					return &s.ctrl.redirWrap[s.redirectorIndex(id)]
				}
				return f.redirectorFor(id)
			},
			Peer: func(p topology.NodeID) *protocol.Host {
				if s.down[p] {
					return nil // failed hosts accept nothing
				}
				return f.hosts[p]
			},
			LoadReport: func(p topology.NodeID, now time.Duration, id object.ID) (protocol.LoadReport, bool) {
				if s.down[p] {
					return protocol.LoadReport{}, false
				}
				return f.hosts[p].LoadReport(now, id), true
			},
			CopyObject:   s.acct.CopyObject,
			CanReplicate: canReplicate,
			Store:        f.stores[i],
			Observer:     &s.acct,
		}
		if s.ctrl != nil {
			env.SendCreateObj = s.sendCreateObj
		}
		h, err := protocol.NewHost(topology.NodeID(i), s.cfg.Protocol.Weighted(weight), env, srv)
		if err != nil {
			return err
		}
		f.hosts[i] = h
	}
	return nil
}

// seedPlacement installs the paper's round-robin initial assignment
// (object i on node i mod N), or a full replica set everywhere for the
// full-replication ablation.
func (f *memFleet) seedPlacement() {
	cfg := &f.s.cfg
	n := len(f.hosts)
	seed := func(id object.ID, h topology.NodeID) {
		f.hosts[h].SeedObject(id)
		f.stores[h].Create(0, id)
		f.redirectorFor(id).NotifyReplicaChange(id, h, 1)
	}
	for i := 0; i < cfg.Universe.Count; i++ {
		id := object.ID(i)
		switch {
		case cfg.ReplicateEverywhere:
			for h := 0; h < n; h++ {
				seed(id, topology.NodeID(h))
			}
		case cfg.InitialPlacement != nil:
			for _, h := range cfg.InitialPlacement[i] {
				seed(id, h)
			}
		default:
			seed(id, cfg.Universe.HomeNode(id, n))
		}
	}
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

// Admit implements Fleet. The storage backend charges its per-read cost
// here, at admission, so the stack's state (cache residency, outage
// windows) advances in arrival order — a deterministic sequence.
func (f *memFleet) Admit(now time.Duration, h, _ topology.NodeID, id object.ID) (time.Duration, Outcome) {
	srv := f.servers[h]
	if t := f.s.cfg.ClientTimeout; t > 0 && srv.QueueDelay(now) > t {
		return 0, Refused
	}
	return srv.Enqueue(now, f.stores[h].ServeCost(now, id)), OK
}

// Complete implements Fleet.
func (f *memFleet) Complete(_ time.Duration, h, g topology.NodeID, id object.ID) bool {
	f.servers[h].OnServed(id)
	f.hosts[h].OnRequest(id, g)
	return true
}

// Measure implements Fleet. A crashed host's model keeps closing (empty)
// intervals, so its load decays to zero instead of freezing.
func (f *memFleet) Measure(now time.Duration, h topology.NodeID) (actual, lower, upper float64, ok bool) {
	start := f.servers[h].CloseInterval(now)
	f.hosts[h].OnMeasurementIntervalClose(start)
	actual = f.servers[h].Load()
	lower, upper = f.hosts[h].Estimator().Bounds(actual)
	return actual, lower, upper, true
}

// Place implements Fleet.
func (f *memFleet) Place(now time.Duration, h topology.NodeID) bool {
	f.hosts[h].DecidePlacement(now)
	return true
}

// Census implements Fleet. The simulated redirector is a process of its
// own that outlives a crash of the host on its node (failures.go), so it
// always answers.
func (f *memFleet) Census(red int) (total, below int, ok bool) {
	r := f.redirectors[red]
	floor := f.s.cfg.Protocol.ReplicaFloor
	for i := red; i < f.s.cfg.Universe.Count; i += len(f.redirectors) {
		c := r.ReplicaCount(object.ID(i))
		total += c
		if floor > 1 && c < floor {
			below++
		}
	}
	return total, below, true
}

// MarkDown implements Fleet: the crash wipes the host's in-memory control
// state and purges its replicas from every redirector. Objects left with
// zero recorded replicas open an outage window.
func (f *memFleet) MarkDown(now time.Duration, n topology.NodeID) {
	f.hosts[n].OnCrash()
	for _, red := range f.redirectors {
		for _, id := range red.PurgeHost(n) {
			if red.ReplicaCount(id) == 0 {
				f.s.openOutage(now, id)
			}
		}
	}
}

// Stats implements Fleet.
func (f *memFleet) Stats(r *Results) {
	r.HostStats = make([]protocol.HostStats, len(f.hosts))
	for i, h := range f.hosts {
		r.HostStats[i] = h.Stats
	}
	for _, srv := range f.servers {
		r.MaxQueueLen = max(r.MaxQueueLen, srv.MaxQueueLen())
		r.TotalServed += srv.TotalServed()
	}
	r.StoreLayers = store.Aggregate(f.stores)
	r.InvariantsError = f.checkInvariants()
}

// checkInvariants verifies cross-component invariants: the redirector's
// replica sets are subsets of what hosts actually hold with matching
// affinities, and every object retains at least one replica.
func (f *memFleet) checkInvariants() error {
	for i := 0; i < f.s.cfg.Universe.Count; i++ {
		id := object.ID(i)
		reps := f.redirectorFor(id).Replicas(id)
		if len(reps) == 0 {
			// With faults configured an object whose only replica lived
			// on a downed host is legitimately unavailable.
			if f.s.cfg.Faults.Enabled() {
				continue
			}
			return fmt.Errorf("sim: object %d has no replicas recorded", id)
		}
		for _, rep := range reps {
			if !f.hosts[rep.Host].Has(id) {
				return fmt.Errorf("sim: redirector lists replica of %d on host %d which lacks it", id, rep.Host)
			}
			if got := f.hosts[rep.Host].Affinity(id); got != rep.Aff {
				return fmt.Errorf("sim: object %d host %d affinity mismatch: redirector %d host %d", id, rep.Host, rep.Aff, got)
			}
		}
	}
	return nil
}
