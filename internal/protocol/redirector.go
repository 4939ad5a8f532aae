package protocol

import (
	"errors"
	"fmt"
	"slices"

	"radar/internal/object"
	"radar/internal/routing"
	"radar/internal/topology"
)

// Policy selects the request distribution algorithm a redirector runs.
// PolicyPaper is the contribution; the others are the strawmen of §3 kept
// as ablation baselines.
type Policy int

// Distribution policies.
const (
	// PolicyPaper is Fig. 2: direct the request to the closest replica
	// unless its unit request count exceeds DistConstant times the minimum
	// unit request count, in which case use the least-requested replica.
	PolicyPaper Policy = iota + 1
	// PolicyRoundRobin rotates over replicas, oblivious to proximity.
	PolicyRoundRobin
	// PolicyClosest always picks the closest replica, oblivious to load.
	PolicyClosest
)

// String returns the policy's report name.
func (p Policy) String() string {
	switch p {
	case PolicyPaper:
		return "paper"
	case PolicyRoundRobin:
		return "round-robin"
	case PolicyClosest:
		return "closest"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Replica is the redirector's view of one object replica.
type Replica struct {
	// Host is the node holding the replica.
	Host topology.NodeID
	// Aff is the replica's affinity: the compact representation of
	// multiple affinity units of the same object on the same host.
	Aff int
	// Rcnt counts how many times the redirector chose this replica since
	// the last replica-set change.
	Rcnt int64
}

// unitRcnt is the replica's unit request count rcnt/aff (Fig. 2).
func (r Replica) unitRcnt() float64 { return float64(r.Rcnt) / float64(r.Aff) }

type redirEntry struct {
	replicas []Replica // sorted by Host for deterministic iteration
	cursor   int       // round-robin position (baseline policy)
	known    bool      // a replica was ever recorded (survives PurgeHost)
}

// Redirector implements the request distribution side of the protocol: it
// tracks the replica set of each object it is responsible for, chooses a
// replica for every request (Fig. 2), and arbitrates replica deletions so
// the last copy of an object is never dropped. In a deployment redirectors
// are spread over the platform with the URL namespace hash-partitioned
// among them; Location records the node this redirector is co-located
// with, so the simulator can charge forwarding latency.
//
// Object IDs are dense small integers, so per-object state lives in a
// slice indexed by ID rather than a map: the per-request lookup is a
// bounds check and an indexed load.
type Redirector struct {
	// Location is the node the redirector runs on.
	Location topology.NodeID

	routes  *routing.Table
	policy  Policy
	cRatio  float64
	entries []redirEntry // indexed by object.ID, grown on demand

	// minReplicas is the replica count RequestDrop preserves per object
	// (>= 1; see SetReplicaFloor).
	minReplicas int

	// reachable, when non-nil, filters ChooseReplica candidates (fault
	// injection: a replica whose forwarding path crosses a cut link is
	// skipped). Nil means every recorded replica is eligible — the exact
	// paper behavior.
	reachable func(host topology.NodeID) bool
}

// Errors returned by Redirector methods.
var (
	ErrUnknownObject = errors.New("protocol: redirector has no replicas recorded for object")
	// ErrNoReachableReplica reports that an object has recorded replicas
	// but the reachability filter excluded all of them (every forwarding
	// path crosses a cut link); the request fails.
	ErrNoReachableReplica = errors.New("protocol: no reachable replica")
)

// NewRedirector returns a redirector at location using the given routes,
// distribution policy and distribution constant (Params.DistConstant).
func NewRedirector(location topology.NodeID, routes *routing.Table, policy Policy, distConstant float64) (*Redirector, error) {
	if routes == nil {
		return nil, fmt.Errorf("%w: routes", ErrNilDependency)
	}
	if distConstant <= 1 {
		return nil, fmt.Errorf("%w: got %v", ErrDistConstant, distConstant)
	}
	if policy < PolicyPaper || policy > PolicyClosest {
		return nil, fmt.Errorf("protocol: unknown policy %d", policy)
	}
	return &Redirector{
		Location:    location,
		routes:      routes,
		policy:      policy,
		cRatio:      distConstant,
		minReplicas: 1,
	}, nil
}

// SetReplicaFloor raises the replica count RequestDrop preserves per
// object from the default 1 (the paper's last-copy rule) to n — the
// redirector side of Params.ReplicaFloor. Values below 1 are clamped to 1.
func (r *Redirector) SetReplicaFloor(n int) {
	if n < 1 {
		n = 1
	}
	r.minReplicas = n
}

// SetReachable installs a reachability filter for ChooseReplica: replicas
// on hosts for which f returns false are skipped, and if every recorded
// replica is filtered out the request fails with ErrNoReachableReplica.
// A nil f restores the unfiltered paper behavior.
func (r *Redirector) SetReachable(f func(host topology.NodeID) bool) {
	r.reachable = f
}

// lookup returns the entry for id, or nil if none was ever recorded.
func (r *Redirector) lookup(id object.ID) *redirEntry {
	if int(id) >= len(r.entries) || int(id) < 0 {
		return nil
	}
	e := &r.entries[id]
	if !e.known {
		return nil
	}
	return e
}

// entry returns the entry for id, growing the index geometrically as
// needed (IDs arrive in ascending order during seeding; per-ID growth
// would be quadratic).
func (r *Redirector) entry(id object.ID) *redirEntry {
	if int(id) >= len(r.entries) {
		if int(id) < cap(r.entries) {
			r.entries = r.entries[:int(id)+1]
		} else {
			grown := make([]redirEntry, int(id)+1, max(2*cap(r.entries), int(id)+1))
			copy(grown, r.entries)
			r.entries = grown
		}
	}
	return &r.entries[id]
}

// ChooseReplica picks the host to service a request for id that entered
// the platform at gateway g, and charges the chosen replica's request
// count. This is the algorithm of Fig. 2 (under PolicyPaper). The errors
// are the bare ErrUnknownObject and ErrNoReachableReplica (the caller holds
// the id), so a failed choice allocates nothing.
func (r *Redirector) ChooseReplica(g topology.NodeID, id object.ID) (topology.NodeID, error) {
	e := r.lookup(id)
	if e == nil || len(e.replicas) == 0 {
		return 0, ErrUnknownObject
	}
	if r.reachable != nil {
		return r.chooseFiltered(g, e)
	}
	switch r.policy {
	case PolicyRoundRobin:
		e.cursor = (e.cursor + 1) % len(e.replicas)
		rep := &e.replicas[e.cursor]
		rep.Rcnt++
		return rep.Host, nil
	case PolicyClosest:
		rep := e.closestTo(g, r.routes)
		rep.Rcnt++
		return rep.Host, nil
	default:
		// One pass finds both the closest replica (distance ties broken by
		// the sorted-by-host order) and the least-loaded one (strictly
		// smaller unit request count wins, so ties also break by host).
		dist := r.routes.DistancesFrom(g)
		closest, least := &e.replicas[0], &e.replicas[0]
		bestD := dist[closest.Host]
		leastU := least.unitRcnt()
		for i := 1; i < len(e.replicas); i++ {
			rep := &e.replicas[i]
			if d := dist[rep.Host]; d < bestD {
				closest, bestD = rep, d
			}
			if u := rep.unitRcnt(); u < leastU {
				least, leastU = rep, u
			}
		}
		chosen := closest
		if closest.unitRcnt() > r.cRatio*leastU {
			chosen = least
		}
		chosen.Rcnt++
		return chosen.Host, nil
	}
}

// chooseFiltered is ChooseReplica under a reachability filter: the same
// per-policy logic restricted to replicas the filter admits. It lives on a
// separate code path so fault-free runs execute the original byte-for-byte.
func (r *Redirector) chooseFiltered(g topology.NodeID, e *redirEntry) (topology.NodeID, error) {
	var buf [8]int
	live := buf[:0]
	for i := range e.replicas {
		if r.reachable(e.replicas[i].Host) {
			live = append(live, i)
		}
	}
	if len(live) == 0 {
		return 0, ErrNoReachableReplica
	}
	switch r.policy {
	case PolicyRoundRobin:
		// Advance the cursor until it lands on a reachable replica; the
		// non-empty live set guarantees termination.
		for {
			e.cursor = (e.cursor + 1) % len(e.replicas)
			if r.reachable(e.replicas[e.cursor].Host) {
				break
			}
		}
		rep := &e.replicas[e.cursor]
		rep.Rcnt++
		return rep.Host, nil
	case PolicyClosest:
		dist := r.routes.DistancesFrom(g)
		best := &e.replicas[live[0]]
		bestD := dist[best.Host]
		for _, i := range live[1:] {
			if d := dist[e.replicas[i].Host]; d < bestD {
				best, bestD = &e.replicas[i], d
			}
		}
		best.Rcnt++
		return best.Host, nil
	default:
		dist := r.routes.DistancesFrom(g)
		closest, least := &e.replicas[live[0]], &e.replicas[live[0]]
		bestD := dist[closest.Host]
		leastU := least.unitRcnt()
		for _, i := range live[1:] {
			rep := &e.replicas[i]
			if d := dist[rep.Host]; d < bestD {
				closest, bestD = rep, d
			}
			if u := rep.unitRcnt(); u < leastU {
				least, leastU = rep, u
			}
		}
		chosen := closest
		if closest.unitRcnt() > r.cRatio*leastU {
			chosen = least
		}
		chosen.Rcnt++
		return chosen.Host, nil
	}
}

// closestTo returns the replica closest to gateway g, breaking distance
// ties by smaller host ID.
func (e *redirEntry) closestTo(g topology.NodeID, routes *routing.Table) *Replica {
	dist := routes.DistancesFrom(g)
	best := &e.replicas[0]
	bestD := dist[best.Host]
	for i := 1; i < len(e.replicas); i++ {
		if d := dist[e.replicas[i].Host]; d < bestD {
			best, bestD = &e.replicas[i], d
		}
	}
	return best
}

// NotifyReplicaChange records that host now holds a replica of id with the
// given affinity, creating the replica record if needed, and resets all of
// the object's request counts to 1. The reset is the paper's remedy for
// new replicas being flooded until their counts catch up (§3). Copy
// creation is notified after the fact, so the recorded set stays a subset
// of live replicas.
func (r *Redirector) NotifyReplicaChange(id object.ID, host topology.NodeID, aff int) {
	if aff < 1 {
		aff = 1
	}
	e := r.entry(id)
	e.known = true
	// Replica sets are a handful of entries: a linear scan finds the record
	// or the position that keeps the set sorted by host.
	at := 0
	for at < len(e.replicas) && e.replicas[at].Host < host {
		at++
	}
	if at < len(e.replicas) && e.replicas[at].Host == host {
		e.replicas[at].Aff = aff
	} else {
		e.replicas = slices.Insert(e.replicas, at, Replica{Host: host, Aff: aff})
	}
	e.resetCounts()
}

// resetCounts sets every replica's request count to 1.
func (e *redirEntry) resetCounts() {
	for i := range e.replicas {
		e.replicas[i].Rcnt = 1
	}
}

// RequestDrop arbitrates a host's intention to drop its replica of id
// (the ReduceAffinity handshake, Fig. 3). It refuses if the replica is the
// object's last, or if dropping would take the replica count below the
// configured replica floor. On approval the replica is removed from the
// recorded set immediately — deletion is notified before the fact — and
// the remaining counts are reset.
func (r *Redirector) RequestDrop(id object.ID, host topology.NodeID) bool {
	e := r.lookup(id)
	if e == nil || len(e.replicas) <= r.minReplicas {
		return false
	}
	for i := range e.replicas {
		if e.replicas[i].Host == host {
			e.replicas = append(e.replicas[:i], e.replicas[i+1:]...)
			e.resetCounts()
			return true
		}
	}
	return false
}

// RecordedAffinity returns the recorded affinity of id's replica on host
// and whether such a record exists. It is the anti-entropy digest probe:
// reconciliation compares it against the host's actual replica state to
// find orphans (live but unrecorded) and stale affinities left by lost
// notifications.
func (r *Redirector) RecordedAffinity(id object.ID, host topology.NodeID) (int, bool) {
	e := r.lookup(id)
	if e == nil {
		return 0, false
	}
	for i := range e.replicas {
		if e.replicas[i].Host == host {
			return e.replicas[i].Aff, true
		}
	}
	return 0, false
}

// RemoveRecord unconditionally deletes the replica record of id on host,
// reporting whether a record existed. Unlike RequestDrop there is no
// last-copy or floor arbitration: this is the anti-entropy path for
// erasing ghost records of replicas the host no longer holds, where
// keeping the record would route requests to a missing copy.
func (r *Redirector) RemoveRecord(id object.ID, host topology.NodeID) bool {
	e := r.lookup(id)
	if e == nil {
		return false
	}
	for i := range e.replicas {
		if e.replicas[i].Host == host {
			e.replicas = append(e.replicas[:i], e.replicas[i+1:]...)
			e.resetCounts()
			return true
		}
	}
	return false
}

// PurgeHost removes every replica recorded on the given host — the
// control-plane reaction to a host failure. Unlike RequestDrop it may
// leave an object with no replicas (the object is then unavailable until
// the host recovers and re-registers). It returns the IDs of the affected
// objects, sorted. The failure-handling extension is outside the paper's
// scope (§1.1 positions the protocol as performance-, not
// availability-oriented) but exercises the same control paths.
func (r *Redirector) PurgeHost(host topology.NodeID) []object.ID {
	var affected []object.ID
	for i := range r.entries {
		e := &r.entries[i]
		if !e.known {
			continue
		}
		for j := range e.replicas {
			if e.replicas[j].Host == host {
				e.replicas = append(e.replicas[:j], e.replicas[j+1:]...)
				e.resetCounts()
				affected = append(affected, object.ID(i))
				break
			}
		}
	}
	return affected
}

// Replicas returns a copy of the recorded replica set for id, sorted by
// host ID. It returns nil for unknown objects.
func (r *Redirector) Replicas(id object.ID) []Replica {
	e := r.lookup(id)
	if e == nil {
		return nil
	}
	out := make([]Replica, len(e.replicas))
	copy(out, e.replicas)
	return out
}

// ReplicaHosts appends the hosts recorded for id to buf and returns it,
// sorted by host ID (the entry order). It returns buf[:0] for unknown
// objects. Pass a reusable buffer to avoid allocating on the placement
// hot path.
func (r *Redirector) ReplicaHosts(id object.ID, buf []topology.NodeID) []topology.NodeID {
	buf = buf[:0]
	e := r.lookup(id)
	if e == nil {
		return buf
	}
	for i := range e.replicas {
		buf = append(buf, e.replicas[i].Host)
	}
	return buf
}

// ReplicaCount returns the number of recorded replicas of id.
func (r *Redirector) ReplicaCount(id object.ID) int {
	e := r.lookup(id)
	if e == nil {
		return 0
	}
	return len(e.replicas)
}

// Objects returns the IDs of all objects with recorded replicas, sorted.
func (r *Redirector) Objects() []object.ID {
	var ids []object.ID
	for i := range r.entries {
		if r.entries[i].known {
			ids = append(ids, object.ID(i))
		}
	}
	return ids
}
