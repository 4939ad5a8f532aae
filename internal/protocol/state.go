package protocol

import (
	"fmt"
	"slices"
	"time"

	"radar/internal/object"
	"radar/internal/topology"
)

// objState is the control state a host keeps per hosted object (paper
// §4.1): the replica's affinity and, for every node that appeared on the
// preference paths of requests serviced since the last placement run, the
// number of those appearances, held in the host's count store. They are
// exact whenever a method of the owning Host reads them: (*Host).settle
// runs first.
type objState struct {
	// id is the object this state belongs to.
	id uint32
	// aff is this replica's affinity.
	aff int32
	// row is 1 + the offset of this object's tally row in the host's count
	// store, -1 - the offset of its dense row once the tallies spilled, or
	// 0 while the window has counted no request for it: most floor-repair
	// copies are never asked for.
	row int32
	// total is the total access count since the last placement decision.
	// It equals the row's count of the own host, because the servicing host
	// heads every preference path; the placement pass reads it here,
	// without the second load through the row.
	total int32
	// acquiredAt is when this host obtained the replica. An object
	// acquired partway through the current observation window is exempt
	// from placement decisions for that window: judging it on a partial
	// window would systematically under-estimate its unit access count
	// and drop freshly created replicas (the same measurement-hygiene
	// principle as §2.1's load estimates).
	acquiredAt time.Duration
}

// loggedReq is one serviced request awaiting (*Host).settle: the object
// and the gateway it entered at, in eight bytes (object IDs are dense and
// node IDs index the fleet, so both fit 32 bits).
type loggedReq struct{ id, g uint32 }

// reqLogCap bounds a host's request log. 64 and 256 entries measured the
// same on sim-zipf; 64 keeps a 53-host fleet's logs under 30 KB.
const reqLogCap = 64

// counts is a host's count store, the access counts of the open placement
// window (§4.1; Fig. 3 resets them every run). A request counts for every
// node on the preference path from the host to its gateway, and the
// routing table holds those paths, so the store keeps each counted
// object's requests by gateway and Host.nodeCounts expands them.
//
// A counted object's tally row holds rowTallies (gateway, count) pairs in
// place: cell 0 is the number of pairs, then the gateways, then their
// counts. A row asked for from one gateway more spills, once, to a dense
// row of n counts indexed by gateway, and hands its tally row, zeroed, to
// the next object counted. Rows of both kinds are cut in order from
// blocks of 2^shift cells, at least 4 KiB and one dense row; reset keeps
// only the blocks the window used, so memory follows the current window,
// not the run's peak. A state removed mid-window leaves its rows unused
// until the reset zeroes them.
type counts struct {
	n, shift, used int // dense row width, log2 of a block's cells, cells handed out
	blocks         [][]int32
	free           []int32 // objState.row values of spilled tally rows
}

// rowTallies is how many gateways a row holds in place. On sim-zipf 74 %
// of counted rows see at most 7 gateways in a window, on sim-churn 84 %.
const rowTallies = 7

// newCounts returns the store of a fleet of n nodes. A block holds 68
// tally rows or, on UUNET's 53 nodes, 19 dense rows; 960-byte blocks made
// sim-zipf allocate 44 % more per request than the dense store before it.
func newCounts(n int) counts {
	c := counts{n: n, shift: 10}
	for 1<<c.shift < n {
		c.shift++
	}
	return c
}

// row returns the width cells at off.
func (c *counts) row(off int32, width int) []int32 {
	return c.blocks[off>>c.shift][off&(1<<c.shift-1):][:width:width]
}

// cut hands out width zeroed cells within one block and returns their
// offset.
func (c *counts) cut(width int) int32 {
	if c.used&(1<<c.shift-1)+width > 1<<c.shift {
		c.used = (c.used>>c.shift + 1) << c.shift
	}
	if c.used+width > len(c.blocks)<<c.shift {
		c.blocks = append(c.blocks, make([]int32, 1<<c.shift))
	}
	c.used += width
	return int32(c.used - width)
}

// take gives st a tally row that holds no tally.
func (c *counts) take(st *objState) {
	if n := len(c.free); n > 0 {
		st.row, c.free = c.free[n-1], c.free[:n-1]
		return
	}
	st.row = c.cut(1+2*rowTallies) + 1
}

// charge counts one request for st, which holds a row, from gateway g.
func (c *counts) charge(st *objState, g topology.NodeID) {
	if st.row < 0 {
		c.row(-1-st.row, c.n)[g]++
		return
	}
	t := c.row(st.row-1, 1+2*rowTallies)
	k := t[0]
	i := slices.Index(t[1:1+k], int32(g))
	if i < 0 && k < rowTallies {
		i, t[0], t[1+k] = int(k), k+1, int32(g)
	}
	if i >= 0 {
		t[1+rowTallies+i]++
		return
	}
	s := c.cut(c.n)
	d := c.row(s, c.n)
	for i, gw := range t[1 : 1+rowTallies] {
		d[gw] = t[1+rowTallies+i]
	}
	d[g]++
	clear(t)
	c.free = append(c.free, st.row)
	st.row = -1 - s
}

// gateways returns st's tallies, nil for an uncounted state: the gateways
// and counts of an unspilled row, or the spilled row with gws nil.
func (c *counts) gateways(st *objState) (gws, cnts []int32) {
	switch {
	case st.row < 0:
		return nil, c.row(-1-st.row, c.n)
	case st.row > 0:
		t := c.row(st.row-1, 1+2*rowTallies)
		return t[1 : 1+t[0]], t[1+rowTallies : 1+rowTallies+t[0]]
	}
	return nil, nil
}

// reset ends the window: the hosted states sts hand back their rows and
// counts, the blocks the window used read zero again, and the rest go.
func (c *counts) reset(sts []objState) {
	for i := range sts {
		sts[i].row, sts[i].total = 0, 0
	}
	used := (c.used + 1<<c.shift - 1) >> c.shift
	for _, b := range c.blocks[:used] {
		clear(b)
	}
	clear(c.blocks[used:])
	c.blocks, c.used, c.free = c.blocks[:used], 0, c.free[:0]
}

// unitAccess returns the unit access count cnt(s,x_s)/aff(x_s) as a rate
// (requests/sec) over a period of periodSec > 0 seconds.
func (st *objState) unitAccess(periodSec float64) float64 {
	return float64(st.total) / (float64(st.aff) * periodSec)
}

// Method distinguishes the two CreateObj request kinds (Fig. 4).
type Method int

// CreateObj methods.
const (
	// Migrate asks the candidate to take over one affinity unit; the
	// source will drop its unit once the copy exists.
	Migrate Method = iota + 1
	// Replicate asks the candidate to host an additional affinity unit.
	Replicate
	// Repair is a replication issued by the replica-floor repair pass with
	// the availability-aware objective armed: the target accepts it against
	// the availability-relaxed watermark lw + w·(hw-lw) instead of lw, so
	// floor restoration may consume load-balancing headroom in proportion
	// to Params.AvailabilityWeight. With w = 0 repair uses plain Replicate
	// and this method never appears on the wire.
	Repair
)

// String returns the method's wire name.
func (m Method) String() string {
	switch m {
	case Migrate:
		return "MIGRATE"
	case Replicate:
		return "REPLICATE"
	case Repair:
		return "REPAIR"
	default:
		return "UNKNOWN"
	}
}

// MoveKind classifies a relocation for observers: geo moves are made for
// proximity by DecidePlacement, load moves by the offloading protocol
// (paper §2.2 terminology: geo-migrated vs load-migrated).
type MoveKind int

// Relocation kinds.
const (
	GeoMove MoveKind = iota + 1
	LoadMove
	// RepairMove is a replication made to restore an object's replica
	// count to Params.ReplicaFloor after failures thinned it — the
	// availability extension, not a paper mechanism.
	RepairMove
)

// String returns the kind's report name.
func (k MoveKind) String() string {
	switch k {
	case GeoMove:
		return "geo"
	case RepairMove:
		return "repair"
	default:
		return "load"
	}
}

// Observer is the callback form of an Event, one method per decision
// kind: Event.Replay makes the call. It is the contract of
// sim.Config.ExtraObserver; hosts hand their decisions out as Events
// (Env.Observer). All methods must be cheap and must not call back into
// the protocol.
type Observer interface {
	// OnMigrate fires when one affinity unit of id moved from -> to.
	OnMigrate(now time.Duration, id object.ID, from, to topology.NodeID, kind MoveKind)
	// OnReplicate fires when to accepted a new affinity unit of id.
	OnReplicate(now time.Duration, id object.ID, from, to topology.NodeID, kind MoveKind)
	// OnDrop fires when host dropped its whole replica of id.
	OnDrop(now time.Duration, id object.ID, host topology.NodeID)
	// OnRefuse fires when a CreateObj request was refused.
	OnRefuse(now time.Duration, id object.ID, from, to topology.NodeID, method Method)
	// OnDefer fires when from deferred a placement move of id to `to`
	// because the control plane lost the handshake: a move whose CreateObj
	// exhausted its retry budget waits for the next placement interval
	// rather than being silently dropped.
	OnDefer(now time.Duration, id object.ID, from, to topology.NodeID, method Method)
}

// Event kinds: one per Observer callback, plus EventCopy.
const (
	EventMigrate   = "migrate"
	EventReplicate = "replicate"
	EventDrop      = "drop"
	EventRefuse    = "refuse"
	EventDefer     = "defer"
	// EventCopy records an accepted CreateObj that materialized a new
	// replica: the object's bytes traveled From -> To. The accepting host
	// makes it, in CreateObj; no Observer method replays it, and the run
	// loop charges it as a transfer.
	EventCopy = "copy"
)

// Event is one placement decision as a value, and the only record of one:
// a host hands it to its Env.Observer, a live placement pass replies with
// a list of them, the JSONL trace writes one per line, and Replay turns it
// into the Observer call. Events compare with ==.
type Event struct {
	// At is the virtual time in nanoseconds.
	At     int64  `json:"at"`
	Kind   string `json:"kind"`
	Object int64  `json:"object"`
	// From is the initiating host (the dropping host for a drop).
	From int `json:"from"`
	To   int `json:"to,omitempty"`
	// Move is the MoveKind name (geo/load/repair) on migrate/replicate
	// events.
	Move string `json:"move,omitempty"`
	// Method is the CreateObj method name on refuse/defer events.
	Method string `json:"method,omitempty"`
}

// Validate reports why e cannot be replayed: an unknown kind, a negative
// time, object or node, or an unknown Move or Method on a kind that carries
// one.
func (e Event) Validate() error {
	switch {
	case e.At < 0:
		return fmt.Errorf("protocol: event at negative time %d", e.At)
	case e.Object < 0:
		return fmt.Errorf("protocol: event on negative object %d", e.Object)
	case e.From < 0 || e.To < 0:
		return fmt.Errorf("protocol: event between negative nodes %d->%d", e.From, e.To)
	}
	var err error
	switch e.Kind {
	case EventMigrate, EventReplicate:
		_, err = ParseMoveKind(e.Move)
	case EventRefuse, EventDefer:
		_, err = ParseMethod(e.Method)
	case EventDrop, EventCopy:
	default:
		err = fmt.Errorf("protocol: unknown event kind %q", e.Kind)
	}
	return err
}

// Replay makes the Observer call a valid e records; a copy has none.
func (e Event) Replay(o Observer) {
	at, id := time.Duration(e.At), object.ID(e.Object)
	from, to := topology.NodeID(e.From), topology.NodeID(e.To)
	kind, _ := ParseMoveKind(e.Move)
	method, _ := ParseMethod(e.Method)
	switch e.Kind {
	case EventMigrate:
		o.OnMigrate(at, id, from, to, kind)
	case EventReplicate:
		o.OnReplicate(at, id, from, to, kind)
	case EventDrop:
		o.OnDrop(at, id, from)
	case EventRefuse:
		o.OnRefuse(at, id, from, to, method)
	case EventDefer:
		o.OnDefer(at, id, from, to, method)
	}
}

// Recorder receives Events: a host's Env.Observer is one. Its methods make
// it the Observer that records every callback as an Event.
type Recorder func(Event)

func (r Recorder) OnMigrate(now time.Duration, id object.ID, from, to topology.NodeID, kind MoveKind) {
	r(Event{At: int64(now), Kind: EventMigrate, Object: int64(id), From: int(from), To: int(to), Move: kind.String()})
}

func (r Recorder) OnReplicate(now time.Duration, id object.ID, from, to topology.NodeID, kind MoveKind) {
	r(Event{At: int64(now), Kind: EventReplicate, Object: int64(id), From: int(from), To: int(to), Move: kind.String()})
}

func (r Recorder) OnDrop(now time.Duration, id object.ID, host topology.NodeID) {
	r(Event{At: int64(now), Kind: EventDrop, Object: int64(id), From: int(host)})
}

func (r Recorder) OnRefuse(now time.Duration, id object.ID, from, to topology.NodeID, method Method) {
	r(Event{At: int64(now), Kind: EventRefuse, Object: int64(id), From: int(from), To: int(to), Method: method.String()})
}

func (r Recorder) OnDefer(now time.Duration, id object.ID, from, to topology.NodeID, method Method) {
	r(Event{At: int64(now), Kind: EventDefer, Object: int64(id), From: int(from), To: int(to), Method: method.String()})
}
