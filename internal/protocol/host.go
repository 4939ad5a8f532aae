package protocol

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"radar/internal/object"
	"radar/internal/routing"
	"radar/internal/store"
	"radar/internal/topology"
)

// RedirectorControl is the control-plane interface a host needs from the
// redirector responsible for an object: replica-set notifications, deletion
// arbitration and the replica set itself. *Redirector implements it; the
// simulator may wrap it to add network charging.
type RedirectorControl interface {
	NotifyReplicaChange(id object.ID, host topology.NodeID, aff int)
	RequestDrop(id object.ID, host topology.NodeID) bool
	// ReplicaHosts writes the hosts recorded for id over buf, sorted by
	// host ID, and returns it: its length is the replica count repair and
	// the §5 gate read, its hosts what the availability ordering reads.
	// Pass a reusable buffer to keep the placement pass allocation-free.
	ReplicaHosts(id object.ID, buf []topology.NodeID) []topology.NodeID
}

// CreateObjRequest is the wire-shaped payload of a CreateObj handshake
// (Fig. 4): every field the callee-side handler needs, with no captured Go
// state, so a transport can marshal it across a process boundary. The
// callee resolves it as CreateObj(arrivalTime, req). SrcAff is Fig. 4's
// payload; the callee's bounds use UnitLoad.
type CreateObjRequest struct {
	From     topology.NodeID
	To       topology.NodeID
	Method   Method
	Object   object.ID
	UnitLoad float64
	SrcAff   int
}

// CreateObjStatus is the caller-visible outcome of a CreateObj handshake.
type CreateObjStatus int

// CreateObj handshake outcomes.
const (
	// CreateAccepted: the peer accepted and the reply arrived.
	CreateAccepted CreateObjStatus = iota + 1
	// CreateRefused: the peer refused (watermark, storage, or halt guard).
	CreateRefused
	// CreateLost: the control plane exhausted its retry budget without a
	// confirmed reply. The caller cannot distinguish "request never
	// arrived" from "accepted, reply lost"; re-issuing with the returned
	// token is safe (idempotent), and anti-entropy reconciliation heals
	// any replica the lost exchange did create.
	CreateLost
	// CreateDown: the target is known down. Nothing was sent and no token
	// was spent.
	CreateDown
)

// Env wires a host into its world. All fields except CanReplicate are
// required.
//
// SendCreateObj and LoadReport are where a host waits on a peer, and a
// transport may yield there: before either returns, CreateObj, LoadReport,
// OnRequest and OnMeasurementIntervalClose may run on the same host (a
// live node lets go of its lock around the RPC). The host keeps no
// *objState across either call; it looks states up again by ID, and its
// walks advance by ID. None of those four removes an object or a
// deferral, so what a pass decided before the yield still holds after it.
type Env struct {
	// Routes answers distance and preference-path queries (the stand-in
	// for the router databases of a real deployment).
	Routes *routing.Table
	// RedirectorFor returns the redirector responsible for an object
	// (the URL namespace may be hash-partitioned over several).
	RedirectorFor func(id object.ID) RedirectorControl
	// LoadReport answers a load query against host p at time now — p's
	// entry in the periodic load-report exchange of §4.2.2 — or false
	// when p is down or unreachable. A negative id asks for the load and
	// watermarks only. Offload recipients and repair targets are elected
	// from these reports (electHost), which asks each peer once per
	// placement pass and keeps the answers on the host's load board. It
	// may yield (see above).
	LoadReport func(p topology.NodeID, now time.Duration, id object.ID) (LoadReport, bool)
	// CanReplicate, if non-nil, gates replication per object — the
	// consistency hook of §5 (category-3 objects cap their replica
	// count). Migration is never gated.
	CanReplicate func(id object.ID, currentReplicas int) bool
	// SendCreateObj carries a CreateObj handshake (Fig. 4), the only way
	// a host reaches a peer: it delivers req from req.From to req.To, runs
	// the callee-side handler at most once per token at the request's
	// arrival time, and reports the outcome, the message token (pass it
	// back to re-issue a CreateLost exchange with the same identity), and
	// the caller-side completion time. A target known down answers
	// CreateDown without sending anything. It may yield (see above).
	SendCreateObj func(now time.Duration, req CreateObjRequest, token uint64) (CreateObjStatus, uint64, time.Duration)
	// Store is this host's replica-storage stack. The host's object table
	// says which replicas it holds; the stack counts them: every replica
	// the table gains (seeded or accepted) is created on it and every one
	// the table loses is dropped. A full stack is CreateObj's last
	// admission check (§2.1 storage capacity). Serve costs are charged by
	// the simulator's request path, not here.
	Store *store.Stack
	// Observer receives every placement decision this host makes, and
	// every copy it accepts, one Event each, in the order they happen.
	Observer Recorder
}

func (e *Env) validate() error {
	switch {
	case e.Routes == nil:
		return fmt.Errorf("%w: Routes", ErrNilDependency)
	case e.RedirectorFor == nil:
		return fmt.Errorf("%w: RedirectorFor", ErrNilDependency)
	case e.LoadReport == nil:
		return fmt.Errorf("%w: LoadReport", ErrNilDependency)
	case e.SendCreateObj == nil:
		return fmt.Errorf("%w: SendCreateObj", ErrNilDependency)
	case e.Store == nil:
		return fmt.Errorf("%w: Store", ErrNilDependency)
	case e.Observer == nil:
		return fmt.Errorf("%w: Observer", ErrNilDependency)
	}
	return nil
}

// Host is one hosting server's placement state machine. It services
// requests (accumulating access counts), periodically runs the replica
// placement algorithm of Fig. 3, serves CreateObj requests from peers
// (Fig. 4), and offloads under high load (Fig. 5). Host is not safe for
// concurrent use: calls into it are serialized, and only the Env yield
// points interleave others with a placement pass.
type Host struct {
	// ID is the node this host runs on.
	ID topology.NodeID

	params Params
	env    Env
	loads  LoadSource
	est    LoadEstimator
	objs   objTable
	cnts   counts

	offloading    bool
	lastPlacement time.Duration
	// candBuf is the reusable candidate scratch buffer for the placement
	// pass; its contents are only valid within one orderCandidates call.
	// replBuf (replica hosts, also what replicaCount sizes) and availBuf
	// (scored candidates) are the availability-aware ordering's scratch
	// buffers, with the same single-call lifetime.
	candBuf  []topology.NodeID
	replBuf  []topology.NodeID
	availBuf []availCand
	nodeBuf  []int32 // nodeCounts' result, valid until its next call
	retryBuf []move  // retryDeferred's walk, traded with objs.deferred
	// board is the pass's load-report exchange, one entry per node, which
	// electHost fills and reads. Nil until the host's first election.
	board []boardEntry
	// reqLog holds the serviced requests OnRequest has taken but settle has
	// not yet charged to the access counts. Nil until the first request.
	reqLog []loggedReq

	// Stats accumulates protocol activity counters for reports.
	Stats HostStats
}

// HostStats counts a host's protocol activity.
type HostStats struct {
	GeoMigrations    int64
	GeoReplications  int64
	LoadMigrations   int64
	LoadReplications int64
	Drops            int64
	AffinityDecrs    int64
	RefusalsSent     int64
	RefusalsGot      int64
	OffloadRuns      int64
	Accepted         int64
	// RepairReplications counts replications made to restore objects to the
	// replica floor after failures (the availability extension).
	RepairReplications int64
	// CreateLost counts CreateObj handshakes abandoned after the control
	// plane's retry budget (unreliable control plane only).
	CreateLost int64
	// DeferredMoves counts placement moves deferred to a later placement
	// interval after a lost handshake (each re-deferral counts again);
	// DeferredCompleted counts deferred moves that later went through.
	DeferredMoves     int64
	DeferredCompleted int64
	// Refusal breakdown by which guard fired.
	RefusedHalt    int64 // relocation halt while estimates stay dirty
	RefusedLW      int64 // accept-side load at or above the low watermark
	RefusedHW      int64 // migration would push load past the high watermark
	RefusedStorage int64 // storage capacity exhausted (§2.1 vector load)
}

// Params returns the host's effective (possibly weight-scaled) parameters.
func (h *Host) Params() Params { return h.params }

// NewHost builds a host on node id with the given parameters, wiring and
// load source.
func NewHost(id topology.NodeID, params Params, env Env, loads LoadSource) (*Host, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if err := env.validate(); err != nil {
		return nil, err
	}
	if loads == nil {
		return nil, fmt.Errorf("%w: loads", ErrNilDependency)
	}
	return &Host{
		ID:      id,
		params:  params,
		env:     env,
		loads:   loads,
		cnts:    newCounts(env.Routes.NumNodes()),
		candBuf: make([]topology.NodeID, 0, env.Routes.NumNodes()),
		nodeBuf: make([]int32, env.Routes.NumNodes()),
	}, nil
}

// SeedObject installs an initial replica (simulation bootstrap) and counts
// it on the host's storage stack, past the stack's capacity if the seeding
// holds more. It does not notify the redirector; the simulator seeds both
// sides.
func (h *Host) SeedObject(id object.ID) {
	if !h.Has(id) {
		h.settle()
		st := h.objs.add(id)
		st.aff, st.acquiredAt = 1, -1 // acquired before any window: immediately eligible
		h.env.Store.Create(id)
	}
}

// Has reports whether the host currently holds a replica of id.
func (h *Host) Has(id object.ID) bool {
	return h.objs.bits.Has(id)
}

// Affinity returns the affinity of the host's replica of id (0 if absent).
func (h *Host) Affinity(id object.ID) int {
	if st := h.objs.get(id); st != nil {
		return int(st.aff)
	}
	return 0
}

// EachObject calls fn with the ID and affinity of every hosted object, in
// ascending ID order. fn must not add or drop objects on h.
func (h *Host) EachObject(fn func(id object.ID, aff int)) {
	for _, st := range h.objs.sts {
		fn(object.ID(st.id), int(st.aff))
	}
}

// NumObjects returns the number of hosted objects.
func (h *Host) NumObjects() int { return len(h.objs.sts) }

// Estimator exposes the host's load estimator (read-only use by metrics).
func (h *Host) Estimator() *LoadEstimator { return &h.est }

// OnRequest records a serviced request for id that entered at gateway g:
// every node on the preference path from this host to g is charged one
// access-count appearance (paper §4.1). Requests for objects the host no
// longer holds (dropped while queued) are counted against no state. The
// request is only logged here; settle charges it.
func (h *Host) OnRequest(id object.ID, g topology.NodeID) {
	if len(h.reqLog) == cap(h.reqLog) {
		h.settle()
		if h.reqLog == nil {
			h.reqLog = make([]loggedReq, 0, reqLogCap)
		}
	}
	h.reqLog = append(h.reqLog, loggedReq{id: uint32(id), g: uint32(g)})
}

// settle charges every logged request to its object's access counts and
// empties the log. Charging early is what an unbatched OnRequest did, so
// it is always exact; charging late is exact as long as nothing read a
// count or changed which state an ID names in between. settle therefore
// runs when the log is full and first thing in every method that does
// either: DecidePlacement (every reader, and the only removal), CreateObj
// and SeedObject (a newly held object must not inherit requests served
// under its ID before), and OnCrash (before the reset).
//
// A state's first charge in the window takes it a tally row, and each
// charge is one tally of the request's gateway; readers expand the tallies
// along the preference paths (nodeCounts). The charges are the cache
// misses they always were (index slot, state, count row), but an event
// loop takes them one at a time; each loop here issues its miss for every
// logged request before the next loop needs the answer
// (BenchmarkHostOnRequest measures it).
func (h *Host) settle() {
	if len(h.reqLog) == 0 {
		return
	}
	var sts [reqLogCap]*objState
	for i, r := range h.reqLog {
		sts[i] = h.objs.get(object.ID(r.id))
	}
	for _, st := range sts[:len(h.reqLog)] {
		if st != nil {
			if st.row == 0 {
				h.cnts.take(st)
			}
			st.total++
		}
	}
	for i, r := range h.reqLog {
		if st := sts[i]; st != nil {
			h.cnts.charge(st, topology.NodeID(r.g))
		}
	}
	h.reqLog = h.reqLog[:0]
}

// nodeCounts returns st's access counts by node (§4.1), nil while the
// window has counted no request for it: each gateway's tally is charged to
// every node on the preference path from h to it. The row is h.nodeBuf.
// Those paths are the branches of h's routing tree, so a spilled row adds
// every node into its parent, farthest first: O(n), not O(n × path length).
func (h *Host) nodeCounts(st *objState) []int32 {
	gws, cnts := h.cnts.gateways(st)
	if cnts == nil {
		return nil
	}
	out := h.nodeBuf
	if gws == nil {
		copy(out, cnts)
		order, parent := h.env.Routes.Tree(h.ID)
		for _, v := range order[:len(order)-1] { // h itself comes last
			out[parent[v]] += out[v]
		}
		return out
	}
	clear(out)
	for i, c := range cnts {
		for _, p := range h.env.Routes.PreferencePath(h.ID, topology.NodeID(gws[i])) {
			out[p] += c
		}
	}
	return out
}

// OnMeasurementIntervalClose informs the host that the load measurement
// interval which began at start completed, letting estimates retire
// (paper §2.1).
func (h *Host) OnMeasurementIntervalClose(start time.Duration) {
	h.est.OnIntervalClose(start)
}

// OnCrash models a host failure wiping the host's in-memory control state:
// load estimates, offloading mode, deferred moves and access counts are
// discarded. Hosted objects survive (disk state) so the host can
// re-register its replicas on recovery.
func (h *Host) OnCrash() {
	h.settle()
	h.est.Reset()
	h.offloading = false
	clear(h.board)
	h.objs.deferred = h.objs.deferred[:0]
	h.cnts.reset(h.objs.sts)
}

// OnRecover prepares a host returning to service at virtual time now:
// every hosted object is marked as freshly acquired so the first placement
// pass after recovery — whose window reaches back over the downtime
// silence and covers at most a sliver of post-recovery traffic — skips
// them, the same measurement-hygiene rule applied to mid-window
// acquisitions. lastPlacement deliberately stays at the last pre-crash
// pass (strictly before now), which is what makes acquiredAt > prev hold
// for every survivor; decisions resume one full clean window later.
func (h *Host) OnRecover(now time.Duration) {
	for i := range h.objs.sts {
		h.objs.sts[i].acquiredAt = now
	}
}

// DecidePlacement runs the replica placement algorithm of Fig. 3 at
// virtual time now: update the offloading mode against the watermarks,
// then for every hosted object decide among dropping an affinity unit
// (unit access count below u), geo-migrating (a candidate appears on more
// than MIGR_RATIO of preference paths), or geo-replicating (unit access
// count above m and a candidate above REPL_RATIO); finally, if the host is
// offloading and the geo pass moved nothing, run the offloading protocol.
// Access counts are reset at the end of the run. The decisions reach
// Env.Observer; HostStats counts them.
func (h *Host) DecidePlacement(now time.Duration) {
	h.settle()
	clear(h.board) // load reports are exchanged anew every pass
	prev := h.lastPlacement
	period := (now - prev).Seconds()
	h.lastPlacement = now
	if period <= 0 {
		return
	}

	load := h.est.LoadForOffload(h.loads.Load())
	if load > h.params.HighWatermark {
		h.offloading = true
	}
	if load < h.params.LowWatermark {
		h.offloading = false
	}

	// moved reports whether a deferred or a Fig. 3 move went through or an
	// affinity unit went: the offload gate. Floor repairs do not count.
	moved := h.retryDeferred(now)

	if h.params.ReplicaFloor > 1 {
		h.repairReplicas(now)
	}

	// The pass walks the live list by ID: it drops the object in hand, and
	// a handshake may yield to a CreateObj that adds one (Env).
	var id object.ID
	for at := 0; at < len(h.objs.sts); at = h.objs.next(at, id) {
		st := &h.objs.sts[at]
		id = object.ID(st.id)
		// Skip a lost move still in flight toward its target, and an object
		// acquired mid-window: no full observation yet.
		if _, deferred := h.objs.deferral(id); deferred || st.acquiredAt > prev {
			continue
		}
		ua := st.unitAccess(period)
		dropped, migrated := false, false
		if ua < h.params.DeletionThreshold {
			// affUnchanged: sole replica of a cold object; the redirector
			// refused the drop, and the object stays put.
			res := h.reduceAffinity(now, id, st)
			dropped = res == affDropped
			moved = moved || res != affUnchanged
		} else if h.tryGeo(now, id, Migrate, migrRatio) {
			migrated, moved = true, true
		}
		if !dropped && !migrated && ua > h.params.ReplicationThreshold &&
			h.tryGeo(now, id, Replicate, replRatio) {
			moved = true
		}
	}

	// Offload when the geo pass gave no relief: either it moved nothing
	// (the Fig. 3 condition) or, despite its moves, the lower-bound load
	// estimate still exceeds the high watermark — without the second arm
	// a host whose geo pass always sheds a trickle would stay overloaded
	// forever while idle far-away hosts are never considered, because geo
	// moves can only target nodes on preference paths.
	if h.offloading &&
		(!moved || h.est.LoadForOffload(h.loads.Load()) > h.params.HighWatermark) {
		h.offload(now, period)
		h.Stats.OffloadRuns++
	}

	h.cnts.reset(h.objs.sts)
}

// createObj performs the CreateObj handshake req over Env.SendCreateObj.
// It returns the outcome, the message token (re-issue a CreateLost exchange
// with it to keep the same identity), and the caller-side completion time.
// A handshake that was sent forgets req.To's load report, so the next
// election asks it again.
func (h *Host) createObj(now time.Duration, req CreateObjRequest, token uint64) (CreateObjStatus, uint64, time.Duration) {
	status, tok, doneAt := h.env.SendCreateObj(now, req, token)
	if status == CreateLost {
		h.Stats.CreateLost++
	}
	if status != CreateDown {
		h.forgetReport(req.To)
	}
	return status, tok, doneAt
}

// move is one placement move: send one affinity unit of id to host to,
// by method, for the reason kind names. token is zero for a fresh move and
// the lost exchange's message token for a deferred one.
type move struct {
	id     object.ID
	to     topology.NodeID
	method Method
	kind   MoveKind
	token  uint64
}

// perform is the one road to a peer: it runs mv's CreateObj handshake with
// mv.to and commits the verdict on this host, which holds mv.id.
// Accepted: the lower-bound load estimate sheds the Theorem 1/3 source
// bound, a migration hands its affinity unit over, the move is counted and
// observed, all at the handshake's completion time. Refused: counted and
// observed at now. Lost: nothing here — the caller defers the move or lets
// its next pass decide again — and the returned token re-issues it. Down:
// nothing here or on the wire.
func (h *Host) perform(now time.Duration, mv move) (CreateObjStatus, uint64) {
	objLoad, aff := h.loads.ObjectLoad(mv.id), int(h.objs.get(mv.id).aff)
	req := CreateObjRequest{From: h.ID, To: mv.to, Method: mv.method, Object: mv.id, UnitLoad: objLoad / float64(aff), SrcAff: aff}
	status, tok, doneAt := h.createObj(now, req, mv.token)
	switch status {
	case CreateAccepted:
		kind := EventReplicate
		if mv.method == Migrate {
			h.est.OnShed(doneAt, h.loads.Load(), MigrationSourceMaxDecrease(objLoad, aff))
			h.reduceAffinity(doneAt, mv.id, h.objs.get(mv.id)) // the handshake may have moved it
			kind = EventMigrate
		} else {
			h.est.OnShed(doneAt, h.loads.Load(), ReplicationSourceMaxDecrease(objLoad))
		}
		h.Stats.count(mv)
		h.record(doneAt, kind, mv)
	case CreateRefused:
		h.Stats.RefusalsGot++
		h.record(now, EventRefuse, mv)
	}
	return status, tok
}

// record hands Env.Observer the Event of one decision this host made at
// at about mv: an accepted move names its MoveKind, a refusal or a deferral
// its method, and a drop (mv carrying only the object) no target.
func (h *Host) record(at time.Duration, kind string, mv move) {
	e := Event{At: int64(at), Kind: kind, Object: int64(mv.id), From: int(h.ID), To: int(mv.to)}
	switch kind {
	case EventMigrate, EventReplicate:
		e.Move = mv.kind.String()
	case EventRefuse, EventDefer:
		e.Method = mv.method.String()
	}
	h.env.Observer(e)
}

// count adds one accepted move to the counter its method and kind select.
func (s *HostStats) count(mv move) {
	switch {
	case mv.kind == RepairMove:
		s.RepairReplications++
	case mv.kind == LoadMove && mv.method == Migrate:
		s.LoadMigrations++
	case mv.kind == LoadMove:
		s.LoadReplications++
	case mv.method == Migrate:
		s.GeoMigrations++
	default:
		s.GeoReplications++
	}
}

// deferMove records a placement move whose handshake was lost under
// message token tok, to be re-issued with that token at the next placement
// run, and counts and observes the deferral. A lost replication after a
// lost migration supersedes it.
func (h *Host) deferMove(now time.Duration, mv move, tok uint64) {
	mv.token = tok
	h.objs.deferMove(mv)
	h.Stats.DeferredMoves++
	h.record(now, EventDefer, mv)
}

// retryDeferred re-issues placement moves whose CreateObj was lost in an
// earlier interval, each with its original message token: if the lost
// request actually reached its target, the control plane replays that
// execution's verdict instead of running CreateObj again, so a move completes
// exactly once. Accepted moves perform their source-side effects now (they
// could not safely run at loss time — the caller did not know whether the
// replica existed); refusals abandon the deferral; a re-lost exchange is
// deferred again; a down target holds it as it is. The walk takes the
// table's list whole, in ascending ID order, while the moves it keeps
// refill the table's in the same order. It reports whether any deferred
// move went through.
func (h *Host) retryDeferred(now time.Duration) bool {
	completed := false
	h.retryBuf, h.objs.deferred = h.objs.deferred, h.retryBuf[:0]
	for _, mv := range h.retryBuf {
		switch status, tok := h.perform(now, mv); status {
		case CreateAccepted:
			h.Stats.DeferredCompleted++
			completed = true
		case CreateLost:
			h.deferMove(now, mv, tok)
		case CreateDown:
			h.objs.deferMove(mv) // held for the next interval, under the same token
		}
	}
	return completed
}

// repairReplicas restores hosted objects whose recorded replica count fell
// below Params.ReplicaFloor (failures thinned the set) by replicating them
// to targets elected from the hosts not yet holding them. It runs before the Fig. 3 pass
// so availability repair is not starved by geo decisions.
func (h *Host) repairReplicas(now time.Duration) {
	// With the availability objective armed, repair travels as the Repair
	// method so the target applies the availability-relaxed accept
	// watermark; at w = 0 it is plain Replicate, byte-for-byte.
	method := Replicate
	if h.params.AvailabilityWeight > 0 {
		method = Repair
	}
	var id object.ID
	for at := 0; at < len(h.objs.sts); at = h.objs.next(at, id) {
		id = object.ID(h.objs.sts[at].id)
		count := h.replicaCount(id)
		if count == 0 {
			// This host's own replica is not registered (it crashed and has
			// not re-registered yet); nothing sensible to repair from.
			continue
		}
		for count < h.params.ReplicaFloor {
			if h.env.CanReplicate != nil && !h.env.CanReplicate(id, count) {
				break
			}
			target, _, ok := h.electHost(now, id, h.params.AvailabilityWeight)
			if !ok {
				break
			}
			mv := move{id: id, to: target, method: method, kind: RepairMove}
			if status, _ := h.perform(now, mv); status != CreateAccepted {
				// A lost repair handshake is retried by the next repair
				// pass; reconciliation heals any replica it did create.
				break
			}
			count = h.replicaCount(id)
		}
	}
}

// replicaCount is the length of id's recorded replica set.
func (h *Host) replicaCount(id object.ID) int {
	h.replBuf = h.env.RedirectorFor(id).ReplicaHosts(id, h.replBuf)
	return len(h.replBuf)
}

// tryGeo attempts the migration or the replication branch of Fig. 3 (method
// says which): the first candidate that appears on more than ratio of the
// object's preference paths and accepts takes the move. It reports whether
// one did.
func (h *Host) tryGeo(now time.Duration, id object.ID, method Method, ratio float64) bool {
	st := h.objs.get(id)
	if st.total == 0 {
		return false
	}
	if method == Replicate && h.env.CanReplicate != nil && !h.env.CanReplicate(id, h.replicaCount(id)) {
		return false
	}
	for _, p := range h.orderCandidates(id, st, method, ratio) {
		mv := move{id: id, to: p, method: method, kind: GeoMove}
		switch status, tok := h.perform(now, mv); status {
		case CreateAccepted:
			return true
		case CreateLost:
			// The exchange may have landed; trying the next candidate could
			// double-place. Defer this exact move to the next interval.
			h.deferMove(now, mv, tok)
			return false
		}
		// Refused or down: the next candidate may take it.
	}
	return false
}

// affResult is the outcome of a ReduceAffinity attempt.
type affResult int

const (
	affUnchanged affResult = iota
	affDecremented
	affDropped
)

// reduceAffinity implements ReduceAffinity of Fig. 3: decrement the
// replica's affinity, or — when it would reach zero — ask the redirector
// for permission to drop the whole replica (the redirector never allows
// the last replica to go).
func (h *Host) reduceAffinity(now time.Duration, id object.ID, st *objState) affResult {
	red := h.env.RedirectorFor(id)
	if st.aff > 1 {
		st.aff--
		h.Stats.AffinityDecrs++
		red.NotifyReplicaChange(id, h.ID, int(st.aff))
		return affDecremented
	}
	if red.RequestDrop(id, h.ID) {
		h.objs.remove(id)
		h.env.Store.Drop(id)
		h.Stats.Drops++
		h.record(now, EventDrop, move{id: id})
		return affDropped
	}
	return affUnchanged
}

// AcquisitionHalted reports whether the §2.1 footnote 2 guard is active:
// back-to-back acquisitions have kept the upper-bound load estimate alive
// past estimateHaltAfter, so the host refuses further acquisitions
// until a clean measurement interval completes. Exposed so repair-target
// selection can steer around hosts whose refusal is a foregone conclusion.
func (h *Host) AcquisitionHalted(now time.Duration) bool {
	return h.est.UpperActiveFor(now) > estimateHaltAfter
}

// CreateObj serves a replica creation request from peer host req.From
// (Fig. 4): refuse unless this host's accept-side load is below the low
// watermark; for migrations additionally refuse if the upper-bound load
// after the move would exceed the high watermark (the vicious-cycle guard
// — replications deliberately skip it so an overloaded neighborhood can
// bootstrap replication). On acceptance the object is copied if absent
// (affinity 1) or its affinity incremented, the redirector is notified
// after the fact, and this host's upper-bound load estimate grows by the
// Theorem 2/4 bound 4·unitLoad.
func (h *Host) CreateObj(now time.Duration, req CreateObjRequest) bool {
	h.settle()
	method, id := req.Method, req.Object
	// §2.1 footnote 2: when back-to-back acquisitions have kept the
	// upper-bound estimate alive too long, halt further acquisitions so a
	// clean measurement interval can complete and real load data returns.
	if h.AcquisitionHalted(now) {
		h.Stats.RefusalsSent++
		h.Stats.RefusedHalt++
		return false
	}
	loadForAccept := h.est.LoadForAccept(h.loads.Load())
	// Availability-aware repair accepts against a watermark relaxed from lw
	// toward hw by the availability weight: a floor repair copy is cold (its
	// unit load is the thinned set's, not a hot spot's) and every refusal
	// costs the object a placement interval of single-copy exposure, so the
	// knob deliberately lets floor restoration consume load-balancing
	// headroom in proportion to w.
	acceptCeiling := h.params.LowWatermark
	if method == Repair {
		acceptCeiling += h.params.AvailabilityWeight * (h.params.HighWatermark - h.params.LowWatermark)
	}
	if loadForAccept > acceptCeiling {
		h.Stats.RefusalsSent++
		h.Stats.RefusedLW++
		return false
	}
	if method == Migrate && loadForAccept+4*req.UnitLoad > h.params.HighWatermark {
		h.Stats.RefusalsSent++
		h.Stats.RefusedHW++
		return false
	}
	st := h.objs.get(id)
	if st == nil {
		// The storage stack is the last admission check: every guard is
		// side-effect free, and the create commits the placement.
		if h.env.Store.Full() {
			h.Stats.RefusalsSent++
			h.Stats.RefusedStorage++
			return false
		}
		h.env.Store.Create(id)
		h.env.Observer(Event{At: int64(now), Kind: EventCopy, Object: int64(id), From: int(req.From), To: int(h.ID)})
		st = h.objs.add(id)
		st.aff, st.acquiredAt = 1, now
	} else {
		st.aff++
	}
	h.env.RedirectorFor(id).NotifyReplicaChange(id, h.ID, int(st.aff))
	h.est.OnAccept(now, h.loads.Load(), 4*req.UnitLoad)
	h.Stats.Accepted++
	return true
}

// offload implements the host offloading protocol of Fig. 5: find a
// recipient below the low watermark, then walk this host's objects in
// decreasing order of their foreign-request share, migrating those at or
// below the replication threshold and replicating those above it (so a
// load move never undoes a previous geo-replication), updating this
// host's lower-bound and the recipient's upper-bound load estimates after
// every move. The walk stops when either estimate crosses the low
// watermark, a request is refused, or objects run out.
func (h *Host) offload(now time.Duration, period float64) {
	rid, report, ok := h.electHost(now, -1, 0)
	if !ok {
		return
	}
	// The recipient is judged against its own watermark, as its CreateObj
	// will judge it: a strong host keeps absorbing past this host's lw.
	recipientLoad, recipientLow := report.AcceptLoad, report.Low
	if h.params.NeighborOnly && h.env.Routes.Distance(h.ID, rid) != 1 {
		return // the related-work baseline cannot shed to distant hosts
	}
	moved := 0

	type cand struct {
		id      object.ID
		foreign float64
	}
	windowStart := now - time.Duration(period*float64(time.Second))
	var cands []cand
	for at := range h.objs.sts {
		st := &h.objs.sts[at]
		if st.acquiredAt > windowStart || st.total == 0 {
			continue // acquired mid-window (no full observation yet), or not asked for
		}
		best := int32(0)
		for p, c := range h.nodeCounts(st) {
			if topology.NodeID(p) != h.ID && c > best {
				best = c
			}
		}
		cands = append(cands, cand{id: object.ID(st.id), foreign: float64(best) / float64(st.total)})
	}
	slices.SortFunc(cands, func(a, b cand) int {
		if c := cmp.Compare(b.foreign, a.foreign); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})

	for _, c := range cands {
		if h.params.MaxOffloadPerRun > 0 && moved >= h.params.MaxOffloadPerRun {
			break
		}
		if h.est.LoadForOffload(h.loads.Load()) <= h.params.LowWatermark || recipientLoad >= recipientLow {
			break
		}
		st := h.objs.get(c.id)
		if st == nil {
			continue
		}
		objLoad, aff := h.loads.ObjectLoad(c.id), int(st.aff) // as the recipient sees them: before the move
		mv := move{id: c.id, to: rid, method: Migrate, kind: LoadMove}
		if st.unitAccess(period) > h.params.ReplicationThreshold {
			// Hot objects are only ever replicated during offload (a load
			// migration could undo a previous geo-replication), so when
			// the consistency layer bars replication the object stays.
			if h.env.CanReplicate != nil && !h.env.CanReplicate(c.id, h.replicaCount(c.id)) {
				continue
			}
			mv.method = Replicate
		}
		if status, _ := h.perform(now, mv); status != CreateAccepted {
			// Lost, refused or down: stop shedding to this recipient — load
			// moves are re-decided from fresh estimates next run, so no
			// deferral is needed.
			break
		}
		if mv.method == Migrate {
			recipientLoad += MigrationTargetMaxIncrease(objLoad, aff)
		} else {
			recipientLoad += ReplicationTargetMaxIncrease(objLoad, aff)
		}
		moved++
	}
}
