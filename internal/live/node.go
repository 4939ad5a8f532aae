package live

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"radar/internal/consistency"
	"radar/internal/object"
	"radar/internal/protocol"
	"radar/internal/routing"
	"radar/internal/sim"
	"radar/internal/substrate"
	"radar/internal/topology"
	"radar/internal/workload"
)

// Node is one live fleet member: the simulator's node assembly
// (sim.Machine — FCFS server, storage stack, protocol host) behind the HTTP
// control plane, plus — when this node is one of the fleet's redirector
// locations — a protocol.Redirector answering object requests with 302s.
//
// In driver-paced mode nodes are clock-less: every mutating endpoint
// carries an explicit virtual timestamp, so a driver pacing the fleet
// through the simulator's event schedule reproduces the simulation's
// decision sequence exactly (DESIGN.md §4.8). In free-running mode
// (Config.FreeRunning) the node owns its clock — virtual time is wall time
// since Start — and runs its own jittered measurement and placement
// tickers; wire timestamps on incoming requests are ignored for the node's
// own state (DESIGN.md §4.9).
//
// Locking: mu guards the machine, the pending-completion queue and the
// placement pass's state; redMu guards the redirector and the
// peer-reachability view; peerMu guards the mutable peer URL table (chaos
// partitions poison it). The only permitted nesting is mu -> redMu (a
// placement pass notifying its own co-located redirector). A node never
// holds mu while it waits on another node's mu: the two calls that reach
// one, sendCreateObj and loadReport, let go of it around their RPC, the
// yield protocol.Env allows. So every handler takes mu with a plain lock,
// in either mode, and passes on different nodes never wait on each other.
type Node struct {
	id      topology.NodeID
	cfg     Config
	n       int  // fleet size
	freeRun bool // cfg.FreeRunning
	bootID  int64

	manifest []string // immutable base URL per node ID (client 302s)

	routes  *routing.Table
	client  *rpcClient
	mux     *http.ServeMux
	payload []byte   // every object's body
	payLen  []string // its Content-Length header value

	creates *callDedup // CreateObj admission gate + verdict cache
	drops   *callDedup // RequestDrop verdict cache

	nextMsg uint64 // atomic; message IDs are bootID<<40 | seq

	epoch    time.Time // wall-clock zero of virtual time (Start)
	stopCh   chan struct{}
	stopOnce sync.Once
	tickWG   sync.WaitGroup
	ready    atomic.Bool

	measureTicks atomic.Int64
	placeTicks   atomic.Int64

	peerMu sync.RWMutex
	peers  []string // mutable control-plane URL per node ID

	mu      sync.Mutex
	machine *sim.Machine
	placing bool         // a placement pass is running (and may be yielding)
	pass    *[]Event     // the running /ctl/place pass's event list; nil outside one
	pending []completion // free-running: admitted requests awaiting their done time,
	head    int          // in admission order from pending[head]

	redMu      sync.Mutex
	redirector *protocol.Redirector
	redLocs    []topology.NodeID
	downPeers  []bool
	filtering  bool // reachability filter installed (first mark-down arms it)
}

// bootCounter allocates process-unique boot IDs; a restarted node gets a
// fresh incarnation number.
var bootCounter int64

// Concurrency limits of the two dedup gates. createDedupLimit bounds the
// CreateObj executions a node runs at once, the buildbarn-style
// replication concurrency limit. Drops are cheap map operations; their
// gate exists only to reuse the verdict-replay machinery.
const (
	createDedupLimit = 4
	dropDedupLimit   = 16
)

// NewNode builds the fleet member running on node id. peers maps every
// node ID to its base URL (http://host:port); the entry for id itself may
// be empty. routes may be nil, in which case the node uses the configured
// topology's shared routing table.
func NewNode(cfg Config, id topology.NodeID, peers []string, routes *routing.Table) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.Normalized()
	if routes == nil {
		routes = substrate.Shared(cfg.Sim.Topo).Routes
	}
	n := routes.NumNodes()
	if int(id) < 0 || int(id) >= n {
		return nil, fmt.Errorf("live: node id %d outside topology of %d nodes", id, n)
	}
	if len(peers) != n {
		return nil, fmt.Errorf("live: %d peer URLs for %d nodes", len(peers), n)
	}
	// Only a free-running node budgets its retries: a cutoff would perturb
	// the driver-paced schedule.
	retryTokens := 0
	if cfg.FreeRunning {
		retryTokens = DefaultRetryBudget
	}
	nd := &Node{
		id:       id,
		cfg:      cfg,
		peers:    append([]string(nil), peers...),
		manifest: append([]string(nil), peers...),
		n:        n,
		freeRun:  cfg.FreeRunning,
		bootID:   atomic.AddInt64(&bootCounter, 1),
		routes:   routes,
		client:   newRPCClient(cfg.Sim.Ctrl, workload.Stream(cfg.Sim.Seed, workload.RPCStream(int(id))), retryTokens),
		payload:  bytes.Repeat([]byte{0x5a}, cfg.Sim.Universe.SizeBytes),
		payLen:   []string{strconv.Itoa(cfg.Sim.Universe.SizeBytes)},
		creates:  newCallDedup(createDedupLimit),
		drops:    newCallDedup(dropDedupLimit),
		stopCh:   make(chan struct{}),
	}
	simCfg := &nd.cfg.Sim
	nd.redLocs = sim.RedirectorLocs(simCfg, routes)
	nd.downPeers = make([]bool, n)
	// The part of the fleet this node holds: one machine, at most one
	// redirector. Seeding is local (sim.SeedPlacement), and so is the §5
	// category table behind the replication gate: every node derives
	// the same one from the shared configuration.
	machines := make([]*sim.Machine, n)
	redirectors := make([]*protocol.Redirector, len(nd.redLocs))
	var err error
	for i, loc := range nd.redLocs {
		if loc == id {
			if nd.redirector, err = sim.NewRedirector(simCfg, routes, nd.redLocs, i); err != nil {
				return nil, err
			}
			redirectors[i] = nd.redirector
		}
	}
	nd.machine, err = sim.NewMachine(simCfg, id, protocol.Env{
		Routes:        routes,
		RedirectorFor: nd.redirectorFor,
		LoadReport:    nd.loadReport,
		CanReplicate:  consistency.Gate(simCfg.Universe, simCfg.Consistency, simCfg.Seed),
		SendCreateObj: nd.sendCreateObj,
		Observer:      nd.event,
	})
	if err != nil {
		return nil, err
	}
	machines[id] = nd.machine
	sim.SeedPlacement(simCfg, machines, redirectors)
	nd.buildMux()
	return nd, nil
}

// redirectorLoc returns the node owning id's redirector (the simulator's
// partition, sim.RedirectorIndex).
func (nd *Node) redirectorLoc(id object.ID) topology.NodeID {
	return nd.redLocs[sim.RedirectorIndex(id, len(nd.redLocs))]
}

// Handler returns the node's HTTP handler.
func (nd *Node) Handler() http.Handler { return nd.mux }

// ---- Lifecycle ------------------------------------------------------------

// Start begins the node's life at the given wall-clock epoch (virtual time
// zero). In driver-paced mode it only marks the node ready; in free-running
// mode it launches the measurement and placement tickers, and —
// when recovered is set (a restart after a crash) — first re-registers
// every held replica with its object's redirector, the live analog of the
// simulator's HostUp re-registration.
func (nd *Node) Start(epoch time.Time, recovered bool) {
	nd.epoch = epoch
	if nd.freeRun {
		if recovered {
			nd.reRegister()
		}
		nd.startTickers()
	}
	nd.ready.Store(true)
}

// Stop halts the node: tickers exit, the completions still pending are
// dropped unrecorded (the work dies with the server), and the RPC client
// aborts in-flight calls and backoff waits so a dying node never sits out
// a retry schedule. Stop is idempotent and safe against a node never
// started.
func (nd *Node) Stop() {
	nd.stopOnce.Do(func() {
		nd.ready.Store(false)
		close(nd.stopCh)
		nd.client.Close()
		nd.tickWG.Wait()
		nd.mu.Lock()
		nd.pending, nd.head = nil, 0
		nd.mu.Unlock()
	})
}

// vnow is the node's own virtual clock: wall time since Start.
func (nd *Node) vnow() time.Duration { return time.Since(nd.epoch) }

// resolveNow maps a wire timestamp to the time a handler should act at:
// the wire value in driver-paced mode (the driver owns time), the node's
// own clock in free-running mode (peers' clocks are never trusted for
// local state).
func (nd *Node) resolveNow(wire int64) time.Duration {
	if nd.freeRun {
		return nd.vnow()
	}
	return time.Duration(wire)
}

// completion is one admitted request awaiting its FCFS done time.
type completion struct {
	done time.Duration
	id   object.ID
	g    topology.NodeID
}

// lock takes the node lock and settles the completions that have come due,
// so whoever reads served counts, access counts or load under mu sees every
// request serviced by now. No driver reports completions in free-running
// mode, and a driver-paced node's queue stays empty.
func (nd *Node) lock() {
	nd.mu.Lock()
	nd.settle()
}

// settle records the pending requests whose service has completed on the
// node's clock — the self-paced analog of the driver's /ctl/complete
// report. FCFS completion times are nondecreasing in admission order, so
// the due ones are a prefix. A pass's own lock settles them, and those that
// come due while it yields wait for the lock after it: they count toward
// the next window, not this one, whose counts the pass resets. Callers
// hold mu.
func (nd *Node) settle() {
	if nd.placing || nd.head == len(nd.pending) {
		return
	}
	now := nd.vnow()
	for ; nd.head < len(nd.pending) && nd.pending[nd.head].done <= now; nd.head++ {
		nd.machine.Complete(nd.pending[nd.head].id, nd.pending[nd.head].g)
	}
	if nd.head > len(nd.pending)/2 { // mostly settled: reuse the front
		nd.pending = nd.pending[:copy(nd.pending, nd.pending[nd.head:])]
		nd.head = 0
	}
}

// peerURL reads the (poisonable) control-plane URL of a peer.
func (nd *Node) peerURL(p topology.NodeID) string {
	nd.peerMu.RLock()
	defer nd.peerMu.RUnlock()
	return nd.peers[p]
}

// reRegister announces every replica this node holds to its object's
// redirector. A recovering node's holdings are its seed image (the
// process restarted from its on-disk state); the redirectors purged its
// records when the crash was marked, so re-registration is what makes the
// replicas choosable again.
func (nd *Node) reRegister() {
	nd.lock()
	var objs []object.ID
	var affs []int
	nd.machine.Host.EachObject(func(id object.ID, aff int) {
		objs, affs = append(objs, id), append(affs, aff)
	})
	nd.mu.Unlock()
	for i, id := range objs {
		nd.redirectorFor(id).NotifyReplicaChange(id, nd.id, affs[i])
	}
}

// ---- Free-running tickers -------------------------------------------------

// startTickers launches the node's self-scheduled control loops.
func (nd *Node) startTickers() {
	nd.ticker(nd.cfg.FreeRun.Measurement, 1, &nd.measureTicks, nd.measureTick)
	if nd.cfg.Sim.DynamicPlacement {
		nd.ticker(nd.cfg.FreeRun.Placement, 2, &nd.placeTicks, nd.placeTick)
	}
}

// ticker runs fn every jittered period until Stop. Each ticker draws its
// jitter from its own seeded stream, so runs are reproducible modulo
// scheduling.
func (nd *Node) ticker(period time.Duration, stream uint64, count *atomic.Int64, fn func(now time.Duration)) {
	rng := workload.Stream(nd.cfg.Sim.Seed, workload.TickerStream(int(nd.id), stream))
	jitter := nd.cfg.FreeRun.Jitter
	nd.tickWG.Add(1)
	go func() {
		defer nd.tickWG.Done()
		for {
			t := time.NewTimer(time.Duration(float64(period) * (1 + jitter*(2*rng.Float64()-1))))
			select {
			case <-nd.stopCh:
				t.Stop()
				return
			case <-t.C:
			}
			fn(nd.vnow())
			count.Add(1)
		}
	}()
}

// measureTick closes one load-measurement interval on the node's own
// clock.
func (nd *Node) measureTick(now time.Duration) {
	nd.lock()
	nd.machine.Measure(now)
	nd.mu.Unlock()
}

// placeTick runs one self-scheduled placement pass.
func (nd *Node) placeTick(now time.Duration) { nd.place(now, nil) }

// place runs one placement pass at now, appending its decisions to events
// when that is not nil. The pass holds mu but for its peer calls.
func (nd *Node) place(now time.Duration, events *[]Event) {
	nd.lock()
	nd.placing, nd.pass = true, events
	nd.machine.Host.DecidePlacement(now)
	nd.placing, nd.pass = false, nil
	nd.mu.Unlock()
}

// nextMsgID allocates a process-unique message ID: the boot ID in the high
// bits, so a restarted node never reuses one, and a counter in the low 40.
func (nd *Node) nextMsgID() uint64 {
	return uint64(nd.bootID)<<40 | atomic.AddUint64(&nd.nextMsg, 1)
}

// event adds to the event list of the /ctl/place pass that caused it; a
// self-scheduled pass has no reader and keeps no list. It records the
// host's decisions (the host makes them only inside a placement pass) and
// the copies sendCreateObj sees. A copy the host accepts as a callee finds
// no list open (a driver-paced node is called only outside its passes):
// the placing node records it. Callers hold mu.
func (nd *Node) event(e Event) {
	if nd.pass != nil {
		*nd.pass = append(*nd.pass, e)
	}
}

// ---- Env wiring -----------------------------------------------------------

// redirectorFor returns the control interface of id's redirector: the
// co-located redirector under redMu, or an RPC stub toward the owning node.
func (nd *Node) redirectorFor(id object.ID) protocol.RedirectorControl {
	loc := nd.redirectorLoc(id)
	if loc == nd.id {
		return (*localRedirector)(nd)
	}
	return &remoteRedirector{nd: nd, loc: loc}
}

func (nd *Node) peerDown(p topology.NodeID) bool {
	nd.redMu.Lock()
	defer nd.redMu.Unlock()
	return nd.downPeers[p]
}

// loadReport backs Env.LoadReport over the wire: the election rule is the
// simulator's, the reports come from the peers' /rpc/load (id < 0 omits
// the replica-presence and halt-guard fields). A failed query is the
// down-host analog — the peer is skipped. The caller, a pass, holds mu;
// the query goes out without it.
func (nd *Node) loadReport(p topology.NodeID, now time.Duration, id object.ID) (protocol.LoadReport, bool) {
	if nd.peerDown(p) {
		return protocol.LoadReport{}, false
	}
	q := url.Values{}
	if id >= 0 {
		q.Set("obj", strconv.FormatInt(int64(id), 10))
		q.Set("now", strconv.FormatInt(int64(now), 10))
	}
	var rep LoadReply
	nd.mu.Unlock()
	err := nd.client.get(nd.peerURL(p), PathLoad, q, &rep)
	nd.mu.Lock()
	return protocol.LoadReport(rep), err == nil
}

// sendCreateObj carries a CreateObj handshake to a remote peer as a
// retried, idempotent RPC: the message ID doubles as the ctrlplane token,
// so a CreateLost re-issue (same token, next placement interval) replays
// the receiver's cached verdict instead of double-creating. The verdict
// says whether acceptance copied the object; the copy is recorded here, at
// the handshake's instant and ahead of the decision it belongs to — where
// the simulator charges it. The cache replays the verdict bytes, so a
// retried handshake records one copy and a lost one none, like its
// decision. The returned completion time is the virtual send time — live
// handshakes resolve inline, like the simulator's reliable path. A peer
// marked down (the simulator's s.down check) is sent nothing and costs no
// message ID. The caller, a pass, holds mu; the RPC goes out without it.
func (nd *Node) sendCreateObj(now time.Duration, req protocol.CreateObjRequest, token uint64) (protocol.CreateObjStatus, uint64, time.Duration) {
	if nd.peerDown(req.To) {
		return protocol.CreateDown, token, now
	}
	msgID := token
	if msgID == 0 {
		msgID = nd.nextMsgID()
	}
	msg := CreateObjMsg{
		MsgID:    msgID,
		From:     int(req.From),
		To:       int(req.To),
		Method:   req.Method.String(),
		Object:   int64(req.Object),
		UnitLoad: req.UnitLoad,
		SrcAff:   req.SrcAff,
		Now:      int64(now),
	}
	var rep CreateObjReply
	nd.mu.Unlock()
	err := nd.client.call(nd.peerURL(req.To), PathCreateObj, &msg, &rep)
	nd.mu.Lock()
	if err != nil {
		return protocol.CreateLost, msgID, now
	}
	if !rep.Accepted {
		return protocol.CreateRefused, msgID, now
	}
	if rep.Copied {
		nd.event(Event{At: int64(now), Kind: EventCopy, Object: msg.Object, From: msg.From, To: msg.To})
	}
	return protocol.CreateAccepted, msgID, now
}

// localRedirector adapts the co-located redirector to RedirectorControl
// under redMu. Methods are called with mu held (mu -> redMu is the
// permitted order).
type localRedirector Node

func (l *localRedirector) NotifyReplicaChange(id object.ID, host topology.NodeID, aff int) {
	l.redMu.Lock()
	defer l.redMu.Unlock()
	l.redirector.NotifyReplicaChange(id, host, aff)
}

func (l *localRedirector) RequestDrop(id object.ID, host topology.NodeID) bool {
	l.redMu.Lock()
	defer l.redMu.Unlock()
	return l.redirector.RequestDrop(id, host)
}

func (l *localRedirector) ReplicaHosts(id object.ID, buf []topology.NodeID) []topology.NodeID {
	l.redMu.Lock()
	defer l.redMu.Unlock()
	return l.redirector.ReplicaHosts(id, buf)
}

// remoteRedirector carries RedirectorControl calls to the owning node.
// Notifications are retried by the client and abandoned on loss (the
// simulated plane's lost-notification analog: reconciliation, not the
// sender, heals the record). A lost drop arbitration conservatively keeps
// the replica.
type remoteRedirector struct {
	nd  *Node
	loc topology.NodeID
}

func (r *remoteRedirector) NotifyReplicaChange(id object.ID, host topology.NodeID, aff int) {
	msg := NotifyMsg{Object: int64(id), Host: int(host), Aff: aff}
	_ = r.nd.client.call(r.nd.peerURL(r.loc), PathNotify, &msg, nil)
}

func (r *remoteRedirector) RequestDrop(id object.ID, host topology.NodeID) bool {
	msg := DropMsg{MsgID: r.nd.nextMsgID(), Object: int64(id), Host: int(host)}
	var rep DropReply
	if err := r.nd.client.call(r.nd.peerURL(r.loc), PathRequestDrop, &msg, &rep); err != nil {
		return false
	}
	return rep.Approved
}

func (r *remoteRedirector) ReplicaHosts(id object.ID, buf []topology.NodeID) []topology.NodeID {
	q := url.Values{"obj": {strconv.FormatInt(int64(id), 10)}}
	var rep ReplicasReply
	if r.nd.client.get(r.nd.peerURL(r.loc), PathReplicas, q, &rep) != nil {
		return buf[:0]
	}
	return append(buf[:0], rep.Hosts...)
}

// ---- HTTP handlers --------------------------------------------------------

func (nd *Node) buildMux() {
	mux := http.NewServeMux()
	mux.HandleFunc(PathHealth, func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ok"))
	})
	mux.HandleFunc(PathReady, func(w http.ResponseWriter, _ *http.Request) {
		if !nd.ready.Load() {
			http.Error(w, "live: node not ready", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ready"))
	})
	mux.HandleFunc(PathCreateObj, nd.handleCreateObj)
	mux.HandleFunc(PathNotify, nd.handleNotify)
	mux.HandleFunc(PathRequestDrop, nd.handleRequestDrop)
	mux.HandleFunc(PathLoad, nd.handleLoad)
	mux.HandleFunc(PathReplicas, nd.handleReplicas)
	mux.HandleFunc(PathObj, nd.handleObj)
	mux.HandleFunc(PathServe, nd.handleServe)
	mux.HandleFunc(PathFetch, nd.handleFetch)
	mux.HandleFunc(PathPlace, nd.handlePlace)
	mux.HandleFunc(PathMeasure, nd.handleMeasure)
	mux.HandleFunc(PathComplete, nd.handleComplete)
	mux.HandleFunc(PathCensus, nd.handleCensus)
	mux.HandleFunc(PathMark, nd.handleMark)
	mux.HandleFunc(PathStats, nd.handleStats)
	nd.mux = mux
}

// readBody decodes and validates a JSON request body, answering 400 with
// the typed reason on failure.
func readBody(w http.ResponseWriter, r *http.Request, msg validator) bool {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err == nil {
		err = Decode(data, msg)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, msg any) {
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(Encode(msg))
}

func (nd *Node) handleCreateObj(w http.ResponseWriter, r *http.Request) {
	var msg CreateObjMsg
	if !readBody(w, r, &msg) || !nd.inRange(w, msg.Object, msg.From) {
		return
	}
	if msg.To != int(nd.id) {
		http.Error(w, fmt.Sprintf("live: createobj addressed to node %d, this is node %d of %d", msg.To, nd.id, nd.n), http.StatusBadRequest)
		return
	}
	method, _ := protocol.ParseMethod(msg.Method) // validated by Decode
	req := protocol.CreateObjRequest{From: topology.NodeID(msg.From), To: nd.id, Method: method, Object: object.ID(msg.Object), UnitLoad: msg.UnitLoad, SrcAff: msg.SrcAff}
	reply := nd.creates.do(msg.MsgID, func() []byte {
		nd.lock()
		hadBefore := nd.machine.Host.Has(req.Object)
		accepted := nd.machine.Host.CreateObj(nd.resolveNow(msg.Now), req)
		nd.mu.Unlock()
		copied := accepted && !hadBefore
		if copied && req.From != nd.id {
			// Fetch the bytes from the source over the data plane, outside
			// mu: one best-effort attempt under the client's timeout,
			// aborted by Stop. A source that died mid-handshake leaves the
			// replica to the next placement pass, as in the simulation,
			// where a copy cannot fail. The placing node records the copy
			// from the reply (sendCreateObj).
			_ = nd.client.fetch(nd.peerURL(req.From), PathFetch+strconv.FormatInt(msg.Object, 10))
		}
		return Encode(CreateObjReply{MsgID: msg.MsgID, Accepted: accepted, Copied: copied})
	})
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(reply)
}

// inRange answers 400 unless object (0 for a message naming none) is in the
// universe and host in the fleet: the redirector and the host would grow
// to any object ID, and a host or gateway without a row in the routing
// table panics with a node lock held, or reads a neighbouring row.
func (nd *Node) inRange(w http.ResponseWriter, object int64, host int) bool {
	if object < int64(nd.cfg.Sim.Universe.Count) && host < nd.n {
		return true
	}
	http.Error(w, fmt.Sprintf("live: object %d or host %d outside a universe of %d and a fleet of %d", object, host, nd.cfg.Sim.Universe.Count, nd.n), http.StatusBadRequest)
	return false
}

// hostsRedirector answers 400 unless this node hosts the redirector of
// object obj (of any object, for obj < 0).
func (nd *Node) hostsRedirector(w http.ResponseWriter, obj int64) bool {
	if nd.redirector == nil || obj >= 0 && nd.redirectorLoc(object.ID(obj)) != nd.id {
		http.Error(w, fmt.Sprintf("live: node %d hosts no redirector for object %d", nd.id, obj), http.StatusBadRequest)
		return false
	}
	return true
}

func (nd *Node) handleNotify(w http.ResponseWriter, r *http.Request) {
	var msg NotifyMsg
	if !readBody(w, r, &msg) || !nd.inRange(w, msg.Object, msg.Host) || !nd.hostsRedirector(w, msg.Object) {
		return
	}
	// Replica-change notifications set the recorded affinity, so retries
	// and duplicates are naturally idempotent — no verdict cache needed.
	nd.redMu.Lock()
	nd.redirector.NotifyReplicaChange(object.ID(msg.Object), topology.NodeID(msg.Host), msg.Aff)
	nd.redMu.Unlock()
	writeJSON(w, struct{}{})
}

func (nd *Node) handleRequestDrop(w http.ResponseWriter, r *http.Request) {
	var msg DropMsg
	if !readBody(w, r, &msg) || !nd.inRange(w, msg.Object, msg.Host) || !nd.hostsRedirector(w, msg.Object) {
		return
	}
	// Drop arbitration is not naturally idempotent (an approved drop
	// removes the record, so a replayed request would read "no replica"),
	// hence the verdict cache.
	reply := nd.drops.do(msg.MsgID, func() []byte {
		nd.redMu.Lock()
		ok := nd.redirector.RequestDrop(object.ID(msg.Object), topology.NodeID(msg.Host))
		nd.redMu.Unlock()
		return Encode(DropReply{MsgID: msg.MsgID, Approved: ok})
	})
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(reply)
}

func (nd *Node) handleLoad(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	obj, now := int64(-1), int64(0)
	if objStr := q.Get("obj"); objStr != "" {
		var err1, err2 error
		obj, err1 = strconv.ParseInt(objStr, 10, 64)
		now, err2 = strconv.ParseInt(q.Get("now"), 10, 64)
		if err1 != nil || err2 != nil || obj < 0 || now < 0 {
			http.Error(w, "live: bad obj/now query", http.StatusBadRequest)
			return
		}
	}
	if !nd.inRange(w, obj, 0) {
		return
	}
	nd.lock()
	rep := LoadReply(nd.machine.Host.LoadReport(nd.resolveNow(now), object.ID(obj)))
	nd.mu.Unlock()
	writeJSON(w, rep)
}

func (nd *Node) handleReplicas(w http.ResponseWriter, r *http.Request) {
	obj, err := strconv.ParseInt(r.URL.Query().Get("obj"), 10, 64)
	if err != nil || obj < 0 {
		http.Error(w, "live: bad obj query", http.StatusBadRequest)
		return
	}
	if !nd.inRange(w, obj, 0) || !nd.hostsRedirector(w, obj) {
		return
	}
	nd.redMu.Lock()
	rep := ReplicasReply{Hosts: nd.redirector.ReplicaHosts(object.ID(obj), nil)}
	nd.redMu.Unlock()
	writeJSON(w, rep)
}

// objectID parses the {id} of a data-plane path: an object of the
// configured universe.
func (nd *Node) objectID(r *http.Request, prefix string) (object.ID, error) {
	idStr := r.URL.Path[len(prefix):]
	id, err := strconv.ParseInt(idStr, 10, 64)
	if err != nil || id < 0 || id >= int64(nd.cfg.Sim.Universe.Count) {
		return 0, fmt.Errorf("live: bad object id %q", idStr)
	}
	return object.ID(id), nil
}

// objQuery parses the {id}, g and now parameters of an object-request
// endpoint.
func (nd *Node) objQuery(r *http.Request, prefix string) (object.ID, topology.NodeID, time.Duration, error) {
	id, err := nd.objectID(r, prefix)
	if err != nil {
		return 0, 0, 0, err
	}
	// Both values are digits on every well-formed request, so the raw query
	// is scanned in place; url.Values (a map and a slice per key) is built
	// only for a query that escapes something.
	var gStr, nowStr string
	if raw := r.URL.RawQuery; strings.ContainsAny(raw, "%+;") {
		q := r.URL.Query()
		gStr, nowStr = q.Get("g"), q.Get("now")
	} else {
		gStr, nowStr = rawQueryValue(raw, "g"), rawQueryValue(raw, "now")
	}
	g, err := strconv.Atoi(gStr)
	if err != nil || g < 0 || g >= nd.n {
		return 0, 0, 0, fmt.Errorf("live: bad gateway %q", gStr)
	}
	now, err := strconv.ParseInt(nowStr, 10, 64)
	if err != nil || now < 0 {
		return 0, 0, 0, fmt.Errorf("live: bad now %q", nowStr)
	}
	return id, topology.NodeID(g), time.Duration(now), nil
}

// rawQueryValue returns the first value of key in a raw query that holds
// no escape, which is what url.Values.Get returns for it.
func rawQueryValue(raw, key string) string {
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if k, v, _ := strings.Cut(pair, "="); k == key {
			return v
		}
	}
	return ""
}

// Header values every data-plane answer shares. net/http only reads a
// header's value slice, so one slice serves every response.
var (
	octetStream = []string{"application/octet-stream"}
	zeroLength  = []string{"0"}
)

// writePayload answers 200 with the object's bytes and says how many, so
// the response is not chunked.
func (nd *Node) writePayload(w http.ResponseWriter) {
	h := w.Header()
	h["Content-Type"] = octetStream
	h["Content-Length"] = nd.payLen
	_, _ = w.Write(nd.payload)
}

// handleObj is the redirecting front-end: choose a replica for the object
// and answer 302 to its serve URL, which carries the virtual arrival time
// there (the redirector->host control hop). now is the request's virtual
// arrival time at the redirector.
func (nd *Node) handleObj(w http.ResponseWriter, r *http.Request) {
	id, g, wireNow, err := nd.objQuery(r, PathObj)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	now := nd.resolveNow(int64(wireNow))
	if !nd.hostsRedirector(w, int64(id)) {
		return
	}
	nd.redMu.Lock()
	h, err := nd.redirector.ChooseReplica(g, id)
	nd.redMu.Unlock()
	if err != nil {
		// No choosable replica (every copy on killed hosts): the request
		// fails at the redirector.
		http.Error(w, fmt.Sprintf("%v: object %d", err, id), http.StatusNotFound)
		return
	}
	// Redirector -> host is one more control hop of pure latency.
	arrive := now + time.Duration(nd.routes.Distance(nd.id, h))*nd.cfg.Sim.Net.HopDelay
	// The 302 always targets the manifest URL: chaos partitions poison the
	// control-plane peer table, not the client-facing data plane. The
	// headers are the whole answer: no client reads a redirect's body.
	u := make([]byte, 0, 96)
	u = append(u, nd.manifest[h]...)
	u = append(u, PathServe...)
	u = strconv.AppendInt(u, int64(id), 10)
	u = append(u, "?g="...)
	u = strconv.AppendInt(u, int64(g), 10)
	u = append(u, "&now="...)
	u = strconv.AppendInt(u, int64(arrive), 10)
	hd := w.Header()
	hd.Set(HeaderHost, strconv.Itoa(int(h)))
	hd.Set("Location", string(u))
	hd["Content-Length"] = zeroLength
	w.WriteHeader(http.StatusFound)
}

// handleServe admits an object request into the FCFS queue. now is the
// request's virtual arrival time at this host. The response carries the
// virtual service completion time; the driver reports that completion back
// via /ctl/complete when virtual time reaches it, which is when load
// measurement and access counts record the serviced request — exactly the
// simulator's two-phase arrival/completion split.
func (nd *Node) handleServe(w http.ResponseWriter, r *http.Request) {
	id, g, wireNow, err := nd.objQuery(r, PathServe)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	now := nd.resolveNow(int64(wireNow))
	nd.lock()
	done, out := nd.machine.Admit(now, id)
	if out == sim.OK && nd.freeRun {
		// No driver reports completions in free-running mode: the node
		// settles its own once its clock reaches the FCFS done time.
		nd.pending = append(nd.pending, completion{done, id, g})
	}
	nd.mu.Unlock()
	if out == sim.Refused {
		w.Header().Set(HeaderTimeout, "1")
		http.Error(w, "live: client timeout", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set(HeaderDone, strconv.FormatInt(int64(done), 10))
	nd.writePayload(w)
}

func (nd *Node) handleFetch(w http.ResponseWriter, r *http.Request) {
	if _, err := nd.objectID(r, PathFetch); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	nd.writePayload(w)
}

func (nd *Node) handlePlace(w http.ResponseWriter, r *http.Request) {
	var msg TickMsg
	if !readBody(w, r, &msg) {
		return
	}
	if nd.freeRun {
		// Two passes on one host must not interleave at their yields.
		http.Error(w, "live: a free-running node runs its own passes", http.StatusConflict)
		return
	}
	var rep PlaceReply
	nd.place(time.Duration(msg.Now), &rep.Events)
	writeJSON(w, rep)
}

func (nd *Node) handleMeasure(w http.ResponseWriter, r *http.Request) {
	var msg TickMsg
	if !readBody(w, r, &msg) {
		return
	}
	nd.lock()
	load, lower, upper := nd.machine.Measure(time.Duration(msg.Now))
	nd.mu.Unlock()
	writeJSON(w, MeasureReply{Load: load, Lower: lower, Upper: upper})
}

func (nd *Node) handleComplete(w http.ResponseWriter, r *http.Request) {
	var msg CompleteMsg
	if !readBody(w, r, &msg) || !nd.inRange(w, msg.Object, msg.Gateway) {
		return
	}
	nd.lock()
	nd.machine.Complete(object.ID(msg.Object), topology.NodeID(msg.Gateway))
	nd.mu.Unlock()
	writeJSON(w, struct{}{})
}

// handleCensus answers the co-located redirector's replica census: totals,
// floor deficits, and the per-object extremes the invariant checker
// asserts bounds on.
func (nd *Node) handleCensus(w http.ResponseWriter, r *http.Request) {
	if !nd.hostsRedirector(w, -1) {
		return
	}
	nd.redMu.Lock()
	rep := CensusReply(sim.Census(&nd.cfg.Sim, nd.redirector))
	nd.redMu.Unlock()
	writeJSON(w, rep)
}

func (nd *Node) handleMark(w http.ResponseWriter, r *http.Request) {
	var msg MarkMsg
	if !readBody(w, r, &msg) || !nd.inRange(w, 0, msg.Host) {
		return
	}
	nd.redMu.Lock()
	nd.downPeers[msg.Host] = msg.Down
	if msg.Down && !nd.filtering && nd.redirector != nil {
		// Arm the redirector's reachability filter on the first mark-down.
		// Installing it lazily keeps fully-healthy fleets on the unfiltered
		// ChooseReplica path — the one the simulator takes in fault-free
		// runs, which the equivalence test pins.
		nd.filtering = true
		down := nd.downPeers
		nd.redirector.SetReachable(func(h topology.NodeID) bool { return !down[h] })
	}
	if msg.Down && nd.redirector != nil {
		// The simulator's crash rule (memFleet.MarkDown): the dead host's
		// records are purged, so replica counts drop below the floor and
		// the placement passes' repair machinery — not just the
		// reachability filter — restores them. A recovering node
		// re-registers its holdings on Start (reRegister).
		nd.redirector.PurgeHost(topology.NodeID(msg.Host), nil)
	}
	nd.redMu.Unlock()
	writeJSON(w, struct{}{})
}

func (nd *Node) handleStats(w http.ResponseWriter, r *http.Request) {
	attempts, retries, lost := nd.client.Stats()
	nd.lock()
	rep := StatsReply{
		Host:                  nd.machine.Host.Stats,
		TotalServed:           nd.machine.Server.TotalServed(),
		MaxQueueLen:           nd.machine.Server.MaxQueueLen(),
		StoreLayers:           nd.machine.Store.Stats(nil),
		CreateExecutions:      nd.creates.Executed(),
		CreatePeakConcurrency: nd.creates.Peak(),
		BootID:                nd.bootID,
		RPCAttempts:           attempts,
		RPCRetries:            retries,
		RPCLost:               lost,
		RPCBudgetDenials:      nd.client.BudgetDenials(),
		MeasureTicks:          nd.measureTicks.Load(),
		PlaceTicks:            nd.placeTicks.Load(),
	}
	nd.mu.Unlock()
	writeJSON(w, rep)
}
