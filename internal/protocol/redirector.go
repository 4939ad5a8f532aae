package protocol

import (
	"errors"
	"fmt"
	"math"
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

// ParsePolicy returns the policy whose String is name: the one lookup
// from a policy's name to the policy.
func ParsePolicy(name string) (Policy, error) {
	return parseName("policy", name, PolicyPaper, PolicyRoundRobin, PolicyClosest)
}

// ParseMethod returns the CreateObj method whose String is name.
func ParseMethod(name string) (Method, error) {
	return parseName("method", name, Migrate, Replicate, Repair)
}

// ParseMoveKind returns the move kind whose String is name.
func ParseMoveKind(name string) (MoveKind, error) {
	return parseName("move kind", name, GeoMove, LoadMove, RepairMove)
}

// parseName returns the one of vals whose String is name.
func parseName[T fmt.Stringer](what, name string, vals ...T) (T, error) {
	for _, v := range vals {
		if v.String() == name {
			return v, nil
		}
	}
	var none T
	return none, fmt.Errorf("protocol: unknown %s %q", what, name)
}

// replica is the redirector's record of one object replica: the node
// holding it, its affinity (the compact representation of multiple affinity
// units of the same object on the same host) and rcnt, how many times the
// redirector chose it since the last replica-set change. Node IDs and
// affinities fit 32 bits, so a record is 16 bytes.
type replica struct {
	host, aff int32
	rcnt      int64
}

// unitRcnt is the replica's unit request count rcnt/aff (Fig. 2).
func (r *replica) unitRcnt() float64 { return float64(r.rcnt) / float64(r.aff) }

// nearTableMin is the smallest replica set that memoizes its choices; below
// it one pass over the set is cheaper, and most sets are that small.
const nearTableMin = 8

// inlineReplicas is the largest replica set an entry holds in place. Under
// floor repair sets stay near the floor: on the churn workload 88 % of
// objects never hold more than 4 replicas, so most sets never allocate.
const inlineReplicas = 4

type redirEntry struct {
	inline [inlineReplicas]replica // the set while it fits, sorted by host
	big    *bigSet                 // the set once it outgrew inline; kept from then on
	n      uint8                   // replicas in inline (0 once big is set)
	known  bool                    // a replica was ever recorded (survives PurgeHost)
	cursor int32                   // round-robin position (baseline policy)
}

// bigSet is a replica set that outgrew its entry, sorted by host. A set of
// nearTableMin or more memoizes Fig. 2's two operands, ties to the lowest
// index: least is the replica with the smallest unit request count, nil
// until scanned, and near[g] is 1 + the index of the replica closest to
// gateway g, 0 until scanned. near is nil for a smaller set.
type bigSet struct {
	replicas []replica
	least    *replica
	near     []uint16
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
// slice rather than a map: a redirector answering for the IDs ≡ part
// (mod parts) keeps object id at entries[id/parts], and the per-request
// lookup is a bounds check and an indexed load.
type Redirector struct {
	// Location is the node the redirector runs on.
	Location topology.NodeID

	routes  *routing.Table
	policy  Policy
	cRatio  float64
	entries []redirEntry // entries[i] is object i*parts + part, one per object of the share

	// part and parts name the redirector's share of the namespace: the IDs
	// ≡ part (mod parts).
	part, parts uint

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
// distribution policy and distribution constant (Params.DistConstant), for
// the objects with IDs below objects that are ≡ part (mod parts): the
// share of the hash-partitioned namespace it answers for, 0 of 1 for all.
func NewRedirector(location topology.NodeID, routes *routing.Table, policy Policy, distConstant float64, objects, part, parts int) (*Redirector, error) {
	if routes == nil {
		return nil, fmt.Errorf("%w: routes", ErrNilDependency)
	}
	if distConstant <= 1 {
		return nil, fmt.Errorf("%w: got %v", ErrDistConstant, distConstant)
	}
	if policy < PolicyPaper || policy > PolicyClosest {
		return nil, fmt.Errorf("protocol: unknown policy %d", policy)
	}
	if objects < 0 {
		return nil, fmt.Errorf("protocol: negative object count %d", objects)
	}
	if part < 0 || part >= parts {
		return nil, fmt.Errorf("protocol: partition %d of %d", part, parts)
	}
	return &Redirector{
		Location:    location,
		routes:      routes,
		policy:      policy,
		cRatio:      distConstant,
		entries:     make([]redirEntry, max(0, objects-part+parts-1)/parts),
		part:        uint(part),
		parts:       uint(parts),
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

// slot returns the index of id's entry, or -1 for an ID outside r's share.
func (r *Redirector) slot(id object.ID) int {
	i := uint(id)
	if r.parts > 1 {
		if i%r.parts != r.part {
			return -1
		}
		i /= r.parts
	}
	if i >= uint(len(r.entries)) {
		return -1
	}
	return int(i)
}

// lookup returns the entry for id, or nil if none was ever recorded.
func (r *Redirector) lookup(id object.ID) *redirEntry {
	if i := r.slot(id); i >= 0 && r.entries[i].known {
		return &r.entries[i]
	}
	return nil
}

// set returns e's replicas, sorted by host: the inline ones or, once the
// set outgrew them, the spilled slice.
func (e *redirEntry) set() []replica {
	if e.big != nil {
		return e.big.replicas
	}
	return e.inline[:e.n]
}

// ChooseReplica picks the host to service a request for id that entered
// the platform at gateway g, and charges the chosen replica's request
// count. This is the algorithm of Fig. 2 (under PolicyPaper). The errors
// are the bare ErrUnknownObject and ErrNoReachableReplica (the caller holds
// the id), so a failed choice allocates nothing.
func (r *Redirector) ChooseReplica(g topology.NodeID, id object.ID) (topology.NodeID, error) {
	e := r.lookup(id)
	if e == nil {
		return 0, ErrUnknownObject
	}
	plain := r.reachable == nil && r.policy == PolicyPaper
	reps := e.inline[:e.n] // e.set(), with the memo test folded in
	if b := e.big; b != nil {
		if b.near != nil && plain {
			return e.charge(r.fig2(b.memoized(g, r.routes))), nil
		}
		reps = b.replicas
	}
	if len(reps) == 0 {
		return 0, ErrUnknownObject
	}
	if !plain {
		return r.choosePass(g, e, reps)
	}
	// One pass finds both the closest replica (distance ties broken by the
	// sorted-by-host order) and the least-loaded one (strictly smaller unit
	// request count wins, so ties also break by host). Without a memo there
	// is no least to drop, so the charge is the bare increment.
	dist := r.routes.DistancesFrom(g)
	closest, least := &reps[0], &reps[0]
	bestD, closestU := dist[closest.host], closest.unitRcnt()
	leastU := closestU
	for i := 1; i < len(reps); i++ {
		rep := &reps[i]
		u := rep.unitRcnt()
		if d := dist[rep.host]; d < bestD {
			closest, bestD, closestU = rep, d, u
		}
		if u < leastU {
			least, leastU = rep, u
		}
	}
	if closestU > r.cRatio*leastU {
		closest = least
	}
	closest.rcnt++
	return topology.NodeID(closest.host), nil
}

// choosePass is ChooseReplica on e's replicas reps under a reachability
// filter or a baseline policy. The memos range over unreachable replicas, so
// one pass finds the closest and least-loaded admitted replica instead
// (same tie rules).
func (r *Redirector) choosePass(g topology.NodeID, e *redirEntry, reps []replica) (topology.NodeID, error) {
	dist := r.routes.DistancesFrom(g)
	var closest, least *replica
	var bestD int32
	var leastU float64
	for i := range reps {
		rep := &reps[i]
		if r.reachable != nil && !r.reachable(topology.NodeID(rep.host)) {
			continue
		}
		if d := dist[rep.host]; closest == nil || d < bestD {
			closest, bestD = rep, d
		}
		if u := rep.unitRcnt(); least == nil || u < leastU {
			least, leastU = rep, u
		}
	}
	switch {
	case closest == nil:
		return 0, ErrNoReachableReplica
	case r.policy == PolicyRoundRobin:
		// Advance to the next reachable replica; the pass found one.
		for {
			e.cursor = (e.cursor + 1) % int32(len(reps))
			if rep := &reps[e.cursor]; r.reachable == nil || r.reachable(topology.NodeID(rep.host)) {
				return e.charge(rep), nil
			}
		}
	case r.policy == PolicyClosest:
		return e.charge(closest), nil
	}
	return e.charge(r.fig2(closest, least)), nil
}

// fig2 is the rule of Fig. 2: the closest replica, unless its unit request
// count exceeds the distribution constant times the least-loaded one's.
func (r *Redirector) fig2(closest, least *replica) *replica {
	if closest.unitRcnt() > r.cRatio*least.unitRcnt() {
		return least
	}
	return closest
}

// charge counts a request on replica rep of e and returns its host. Counts
// only grow between resets, so only charging the least-loaded replica can
// displace it.
func (e *redirEntry) charge(rep *replica) topology.NodeID {
	rep.rcnt++
	if e.big != nil && rep == e.big.least {
		e.big.least = nil
	}
	return topology.NodeID(rep.host)
}

// memoized returns the replica closest to gateway g and the least-loaded
// one from the memo, scanning to refill what charge or a reset dropped.
func (b *bigSet) memoized(g topology.NodeID, routes *routing.Table) (closest, least *replica) {
	reps := b.replicas
	if b.near[g] == 0 {
		dist := routes.DistancesFrom(g)
		best, bestD := 0, dist[reps[0].host]
		for i := 1; i < len(reps); i++ {
			if d := dist[reps[i].host]; d < bestD {
				best, bestD = i, d
			}
		}
		b.near[g] = uint16(best + 1)
	}
	if b.least == nil {
		b.least = &reps[0]
		leastU := b.least.unitRcnt()
		for i := 1; i < len(reps); i++ {
			if u := reps[i].unitRcnt(); u < leastU {
				b.least, leastU = &reps[i], u
			}
		}
	}
	return &reps[b.near[g]-1], b.least
}

// NotifyReplicaChange records that host now holds a replica of id with the
// given affinity, creating the replica record if needed, and resets all of
// the object's request counts to 1. The reset is the paper's remedy for
// new replicas being flooded until their counts catch up (§3). Copy
// creation is notified after the fact, so the recorded set stays a subset
// of live replicas. id must be in the redirector's share; aff is clamped to
// [1, MaxInt32], the range a record holds.
func (r *Redirector) NotifyReplicaChange(id object.ID, host topology.NodeID, aff int) {
	aff = min(max(aff, 1), math.MaxInt32)
	e := &r.entries[r.slot(id)]
	e.known = true
	reps := e.set()
	if at, ok := find(reps, host); ok {
		reps[at].aff = int32(aff)
	} else {
		e.store(slices.Insert(reps, at, replica{host: int32(host), aff: int32(aff)}))
	}
	e.resetCounts(r.routes.NumNodes())
}

// store makes reps, e.set() with one record inserted or deleted, e's set.
// Inline, the insertion or deletion happened in place; a set that outgrows
// inline spills to a bigSet once, for good.
func (e *redirEntry) store(reps []replica) {
	switch {
	case e.big != nil:
		e.big.replicas = reps
	case len(reps) > inlineReplicas:
		e.big, e.n = &bigSet{replicas: reps}, 0
	default:
		e.n = uint8(len(reps))
	}
}

// find returns the index of host's record in reps, or where inserting it
// keeps reps sorted, and whether it exists. Sets are small: a scan beats
// bisection.
func find(reps []replica, host topology.NodeID) (int, bool) {
	at, h := 0, int32(host)
	for at < len(reps) && reps[at].host < h {
		at++
	}
	return at, at < len(reps) && reps[at].host == h
}

// remove deletes host's record of e, if any, and resets the rest.
func (r *Redirector) remove(e *redirEntry, host topology.NodeID) bool {
	reps := e.set()
	i, ok := find(reps, host)
	if ok {
		e.store(slices.Delete(reps, i, i+1))
		e.resetCounts(r.routes.NumNodes())
	}
	return ok
}

// resetCounts follows every replica-set change: each request count returns
// to 1 and the memo, which points into the old set, is emptied. Only a set
// of nearTableMin or more keeps one.
func (e *redirEntry) resetCounts(gateways int) {
	reps := e.set()
	for i := range reps {
		reps[i].rcnt = 1
	}
	switch b, large := e.big, len(reps) >= nearTableMin; {
	case b == nil: // inline: never large, no memo
	case large && b.near == nil:
		b.near = make([]uint16, gateways)
	case large:
		b.least = nil
		clear(b.near)
	case b.near != nil: // storing nil over nil still pays a write barrier
		b.least, b.near = nil, nil
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
	return e != nil && len(e.set()) > r.minReplicas && r.remove(e, host)
}

// RecordedAffinity returns the recorded affinity of id's replica on host
// and whether such a record exists. It is the anti-entropy digest probe:
// reconciliation compares it against the host's actual replica state to
// find orphans (live but unrecorded) and stale affinities left by lost
// notifications.
func (r *Redirector) RecordedAffinity(id object.ID, host topology.NodeID) (int, bool) {
	if e := r.lookup(id); e != nil {
		reps := e.set()
		if i, ok := find(reps, host); ok {
			return int(reps[i].aff), true
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
	return e != nil && r.remove(e, host)
}

// PurgeHost removes every replica recorded on the given host — the
// control-plane reaction to a host failure. Unlike RequestDrop it may
// leave an object with no replicas (the object is then unavailable until
// the host recovers and re-registers). It appends the IDs of the objects
// it left with none to emptied[:0], ascending, and returns it; pass a
// reusable buffer to keep a crash from allocating. The failure-handling
// extension is outside the paper's scope (§1.1 positions the protocol as
// performance-, not availability-oriented) but exercises the same control
// paths.
func (r *Redirector) PurgeHost(host topology.NodeID, emptied []object.ID) []object.ID {
	emptied = emptied[:0]
	for i := range r.entries {
		if e := &r.entries[i]; r.remove(e, host) && len(e.set()) == 0 {
			emptied = append(emptied, r.id(i))
		}
	}
	return emptied
}

// ReplicaHosts appends the hosts recorded for id to buf and returns it,
// sorted by host ID (the entry order). It returns buf[:0] for unknown
// objects. Pass a reusable buffer to avoid allocating on the placement
// hot path.
func (r *Redirector) ReplicaHosts(id object.ID, buf []topology.NodeID) []topology.NodeID {
	buf = buf[:0]
	if e := r.lookup(id); e != nil {
		for _, rep := range e.set() {
			buf = append(buf, topology.NodeID(rep.host))
		}
	}
	return buf
}

// EachObject calls fn with the ID of every object a replica was ever
// recorded for, in ascending order.
func (r *Redirector) EachObject(fn func(id object.ID)) {
	for i := range r.entries {
		if r.entries[i].known {
			fn(r.id(i))
		}
	}
}

// EachReplicaCount calls fn with the recorded replica count of every object
// in r's share of the namespace, in ascending ID order: 0 for an object no
// replica was ever recorded for.
func (r *Redirector) EachReplicaCount(fn func(n int)) {
	for i := range r.entries {
		fn(len(r.entries[i].set()))
	}
}

// id returns the object whose entry is entries[i].
func (r *Redirector) id(i int) object.ID { return object.ID(uint(i)*r.parts + r.part) }
