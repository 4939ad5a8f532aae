package sim

import (
	"sort"
	"time"

	"radar/internal/object"
	"radar/internal/protocol"
	"radar/internal/routing"
	"radar/internal/server"
	"radar/internal/store"
	"radar/internal/topology"
)

// Machine is one node of a fleet (paper §2, §2.1): the FCFS server model
// with the node's capacity weight, its replica-storage stack, and the
// protocol host holding the Fig. 3–5 placement state. The in-memory fleet
// is a slice of them called directly; a live node is one behind HTTP
// handlers, guarded by the node lock — a Machine is not safe for
// concurrent use.
type Machine struct {
	Server *server.Server
	Store  *store.Stack
	Host   *protocol.Host
}

// NewMachine builds node id's machine from cfg. env carries what differs
// between transports — how the host reaches its peers and redirectors, and
// who observes its decisions — and the §5 category gate, which a fleet
// derives from cfg once for all the machines it holds; the storage stack
// comes from cfg. A weight in cfg.HostWeights scales the server's capacity
// and the host's watermarks.
func NewMachine(cfg *Config, id topology.NodeID, env protocol.Env) (*Machine, error) {
	weight := 1.0
	if cfg.HostWeights != nil {
		weight = cfg.HostWeights[id]
	}
	srvCfg := cfg.Server
	srvCfg.CapacityRPS *= weight
	srv, err := server.New(srvCfg)
	if err != nil {
		return nil, err
	}
	st := cfg.Store.Build(int64(cfg.Universe.SizeBytes))
	env.Store = st
	h, err := protocol.NewHost(id, cfg.Protocol.Weighted(weight), env, srv)
	if err != nil {
		return nil, err
	}
	return &Machine{Server: srv, Store: st, Host: h}, nil
}

// Admit offers a request arriving at now to the FCFS queue and returns its
// service completion time, or Refused when the queue delay exceeds the
// client timeout. The storage backend charges its per-read cost here, at
// admission, so the stack's state (cache residency) advances in arrival
// order — a deterministic sequence.
func (m *Machine) Admit(now time.Duration, id object.ID) (time.Duration, Outcome) {
	if m.Server.QueueDelay(now) > clientTimeout {
		return 0, Refused
	}
	return m.Server.Enqueue(now, m.Store.ServeCost(id)), OK
}

// Complete records a serviced request from gateway g: the load measurement
// and the access counts see it when service ends, not at admission. It is
// the one caller of both; each logs the request and charges its per-object
// counters in batches, exact whenever a method of their owner reads them.
func (m *Machine) Complete(id object.ID, g topology.NodeID) {
	m.Server.OnServed(id)
	m.Host.OnRequest(id, g)
}

// Measure closes the load-measurement interval at now (§2.1): its start,
// and the measured load between the protocol's lower and upper estimates.
func (m *Machine) Measure(now time.Duration) (start time.Duration, actual, lower, upper float64) {
	start = m.Server.CloseInterval(now)
	m.Host.OnMeasurementIntervalClose(start)
	actual = m.Server.Load()
	lower, upper = m.Host.Estimator().Bounds(actual)
	return start, actual, lower, upper
}

// RedirectorLocs returns the nodes hosting cfg's redirectors, in partition
// order: redirector i of k answers for the objects with id mod k == i.
// They sit on the NumRedirectors nodes with the smallest average hop
// distance (paper §6.1), selected by (avg, id) so the order is stable — or,
// with RedirectorAtHome, one on every node in ID order: objects are homed
// round-robin, so the partition sends each to its home node's. The loop,
// every live node and the live tools derive the same list from the shared
// routing table, so the object → redirector partition needs no
// coordination.
func RedirectorLocs(cfg *Config, routes *routing.Table) []topology.NodeID {
	n := routes.NumNodes()
	locs := make([]topology.NodeID, n)
	for i := range locs {
		locs[i] = topology.NodeID(i)
	}
	if cfg.RedirectorAtHome {
		return locs
	}
	avg := make([]float64, n)
	for i := range avg {
		avg[i] = routes.AvgDistance(topology.NodeID(i))
	}
	sort.Slice(locs, func(i, j int) bool {
		a, b := locs[i], locs[j]
		return avg[a] < avg[b] || (avg[a] == avg[b] && a < b)
	})
	return locs[:min(cfg.NumRedirectors, n)]
}

// NewRedirector builds the redirector located on node loc.
func NewRedirector(cfg *Config, routes *routing.Table, loc topology.NodeID) (*protocol.Redirector, error) {
	r, err := protocol.NewRedirector(loc, routes, cfg.Policy, cfg.Protocol.DistConstant)
	if err != nil {
		return nil, err
	}
	r.SetReplicaFloor(cfg.Protocol.ReplicaFloor) // clamps to the paper's last-copy rule
	return r, nil
}

// SeedPlacement installs the initial placement: the paper's round-robin
// assignment (object i on node i mod N), a replica everywhere for the
// full-replication ablation, or cfg.InitialPlacement. machines is indexed
// by node ID and redirectors by partition index; nil entries live in
// another process, which derives the same assignment from the shared
// configuration, so startup needs no cross-node traffic.
func SeedPlacement(cfg *Config, machines []*Machine, redirectors []*protocol.Redirector) {
	n := len(machines)
	seed := func(id object.ID, h topology.NodeID) {
		if m := machines[h]; m != nil {
			m.Host.SeedObject(id) // counts the replica on the machine's stack
		}
		if r := redirectors[int(id)%len(redirectors)]; r != nil {
			r.NotifyReplicaChange(id, h, 1)
		}
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

// ReplicaCensus is one redirector's count of the replicas it records for
// its share of the namespace. The loop reads the total and the floor
// deficit; the per-object extremes and the zero count are what the live
// invariant checker bounds. The tags are its wire form (live.CensusReply).
type ReplicaCensus struct {
	Objects       int `json:"objects"`
	TotalReplicas int `json:"total_replicas"`
	// BelowFloor counts objects under the configured replica floor (zero
	// unless a floor above 1 is armed).
	BelowFloor int `json:"below_floor,omitempty"`
	// MinReplicas/MaxReplicas are the smallest and largest recorded
	// replica count (zero when the redirector owns no object).
	MinReplicas int `json:"min_replicas,omitempty"`
	MaxReplicas int `json:"max_replicas,omitempty"`
	// Zero counts objects with no recorded replica at all — each one is a
	// lost object unless it is healed within the convergence budget.
	Zero int `json:"zero,omitempty"`
}

// Census counts the replicas r, redirector red of k, records.
func Census(cfg *Config, r *protocol.Redirector, red, k int) ReplicaCensus {
	var c ReplicaCensus
	floor := cfg.Protocol.ReplicaFloor
	for i := red; i < cfg.Universe.Count; i += k {
		n := r.ReplicaCount(object.ID(i))
		if c.Objects == 0 || n < c.MinReplicas {
			c.MinReplicas = n
		}
		c.MaxReplicas = max(c.MaxReplicas, n)
		c.Objects++
		c.TotalReplicas += n
		if floor > 1 && n < floor {
			c.BelowFloor++
		}
		if n == 0 {
			c.Zero++
		}
	}
	return c
}
