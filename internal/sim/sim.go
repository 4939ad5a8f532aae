package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"radar/internal/metrics"
	"radar/internal/object"
	"radar/internal/protocol"
	"radar/internal/routing"
	"radar/internal/server"
	"radar/internal/simevent"
	"radar/internal/simnet"
	"radar/internal/substrate"
	"radar/internal/topology"
	"radar/internal/workload"
)

// Simulation is one configured run: the run loop — virtual time, the
// per-gateway generators, the request path and the three periodic ticks —
// over a Fleet. Build with New (the in-memory fleet, the paper's
// simulation) or NewOver (an external fleet), execute with Run.
type Simulation struct {
	cfg    Config
	topo   *topology.Topology
	routes *routing.Table
	engine *simevent.Engine
	net    *simnet.Network
	col    *metrics.Collector
	gen    workload.Generator

	// fleet is what the loop drives. mem is the same value when that is
	// the in-memory fleet and nil otherwise; only the optional subsystems
	// (failures.go, ctrl.go) and the read-only accessors reach through it,
	// the loop itself goes through fleet.
	fleet Fleet
	mem   *memFleet

	redLocs  []topology.NodeID // redirector locations, in partition order
	rngs     []*rand.Rand      // one request stream per gateway
	svcQueue []reqFIFO         // deferred FCFS completions, one FIFO per server
	arrivals []reqFIFO         // deferred arrivals, one FIFO per hop count (serial)
	hooks    []hook
	ran      bool

	// Sharded-engine state (see shards.go). laneOf maps every node to its
	// execution lane; serial runs point every node at the single main lane,
	// whose sinks alias col/net above, so the per-request code is the same
	// in both modes. dispEng carries the generator/redirector dispatch
	// plane: the main engine when serial, a dedicated serial engine when
	// sharded.
	sharded   bool
	lanes     []*lane
	laneOf    []*lane
	disp      *lane
	dispEng   *simevent.Engine
	dispSeq   uint64
	shardOf   []int
	lookahead time.Duration

	droppedChoices int64
	timedOut       int64

	// down is the loop's view of which nodes are crashed: scripted faults
	// set it in memory, a Lost answer sets it over an external fleet.
	down       []bool
	failures   int64
	recoveries int64

	// ctrl is the armed unreliable control plane; nil unless the fault
	// spec carries message-fault terms, so reliable runs keep the exact
	// inline control paths (bit-identical output).
	ctrl *ctrlState

	// Fault-injection state. haveLinkFaults arms the per-request severed-
	// path checks; it stays false in fault-free runs so the hot path is
	// bit-identical to a build without the fault subsystem.
	haveLinkFaults bool
	linkFailures   int64
	linkRecoveries int64
	repairByteHops int64
	// outageStart[id] is when object id lost its last recorded replica;
	// windows close on recovery (or at the horizon, in results).
	outageStart map[object.ID]time.Duration
}

// hook is a caller-scheduled loop event (see At).
type hook struct {
	at time.Duration
	fn func()
}

// New builds a simulation from cfg: the run loop over the in-memory fleet.
// A nil cfg.Topo selects the reconstructed UUNET backbone. The topology
// and routing table come from the shared substrate cache
// (internal/substrate): every simulation over a structurally identical
// topology — including concurrent runs in an experiment suite — reads the
// same frozen instances instead of rebuilding its own.
func New(cfg Config) (*Simulation, error) {
	s, err := newLoop(cfg)
	if err != nil {
		return nil, err
	}
	if s.fleet, err = newMemFleet(s); err != nil {
		return nil, err
	}
	if err := s.initLanes(); err != nil {
		return nil, err
	}
	return s, nil
}

// newLoop builds everything of a Simulation but its fleet and lanes.
func newLoop(cfg Config) (*Simulation, error) {
	var sub *substrate.Substrate
	if cfg.Topo == nil {
		sub = substrate.UUNET()
		cfg.Topo = sub.Topo
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if sub == nil {
		sub = substrate.Shared(cfg.Topo)
	}
	s := &Simulation{
		cfg:    cfg,
		topo:   cfg.Topo,
		routes: sub.Routes,
		engine: simevent.New(),
		gen:    cfg.Workload,
	}
	col, err := metrics.New(cfg.MetricsBucket)
	if err != nil {
		return nil, err
	}
	col.Reserve(cfg.Duration)
	s.col = col
	s.net, err = simnet.New(cfg.Net, s.topo.NumNodes(), col)
	if err != nil {
		return nil, err
	}
	n := s.topo.NumNodes()
	s.redLocs = RedirectorLocs(&s.cfg, s.routes)
	s.down = make([]bool, n)
	s.svcQueue = make([]reqFIFO, n)
	s.arrivals = make([]reqFIFO, 2*s.routes.Diameter()+1)
	s.rngs = make([]*rand.Rand, n)
	for i := 0; i < n; i++ {
		s.rngs[i] = workload.Stream(cfg.Seed, workload.GatewayStream(i))
	}
	return s, nil
}

// chargeHandshake charges a request/response control message pair.
func (s *Simulation) chargeHandshake(now time.Duration, from, to topology.NodeID) {
	s.net.ControlMessage(now, s.routes.Path(from, to), controlMsgBytes)
	s.net.ControlMessage(now, s.routes.Path(to, from), controlMsgBytes)
}

// chargeNotify charges a one-way notification from a host to the object's
// redirector.
func (s *Simulation) chargeNotify(now time.Duration, from topology.NodeID, id object.ID) {
	loc := s.redLocs[RedirectorIndex(id, len(s.redLocs))]
	s.net.ControlMessage(now, s.routes.Path(from, loc), controlMsgBytes)
}

// record is the loop's side of the seam: every placement decision and copy
// a fleet's hosts make reaches it as an Event, in order. A copy charges its
// transfer as protocol overhead. A decision charges its control messages, unless the unreliable
// control plane is armed (it charged every leg, retries and duplicates
// included, at its true send time), then a repair its byte-hops; it is
// counted and handed to Config.ExtraObserver.
func (s *Simulation) record(e protocol.Event) {
	now, id := time.Duration(e.At), object.ID(e.Object)
	from, to := topology.NodeID(e.From), topology.NodeID(e.To)
	if e.Kind == protocol.EventCopy {
		s.net.Transfer(now, s.routes.Path(from, to), int64(s.cfg.Universe.SizeBytes), simnet.Overhead)
		return
	}
	if s.ctrl == nil {
		switch e.Kind {
		case protocol.EventMigrate, protocol.EventReplicate:
			s.chargeHandshake(now, from, to)
			s.chargeNotify(now, to, id)
		case protocol.EventDrop:
			s.chargeNotify(now, from, id)
		case protocol.EventRefuse:
			s.chargeHandshake(now, from, to)
		}
	}
	if e.Kind == protocol.EventReplicate && e.Move == protocol.RepairMove.String() {
		// Re-replication traffic: the repair copy's bytes over its path.
		s.repairByteHops += int64(s.cfg.Universe.SizeBytes) * int64(s.routes.Distance(from, to))
	}
	s.col.Count(e)
	if s.cfg.ExtraObserver != nil {
		e.Replay(s.cfg.ExtraObserver)
	}
}

// At schedules fn to run as a loop event at virtual time at; call it
// before Run. It is how a caller injects an action — killing a node,
// marking it down — at a deterministic point of the schedule.
func (s *Simulation) At(at time.Duration, fn func()) {
	s.hooks = append(s.hooks, hook{at: at, fn: fn})
}

// MarkDown records node n as crashed as of the current virtual time, as
// if a call to it had been Lost. Call it from an At hook.
func (s *Simulation) MarkDown(n topology.NodeID) { s.markDown(s.engine.Now(), n) }

// markDown is the loop's single crash path: scripted faults, Lost answers
// and MarkDown all end here. The node leaves the schedule — requests to it
// fail, its placement ticks idle — and the fleet is told once.
func (s *Simulation) markDown(now time.Duration, n topology.NodeID) {
	if s.down[n] {
		return
	}
	s.down[n] = true
	s.failures++
	s.fleet.MarkDown(now, n)
}

// ErrAlreadyRan reports a second Run on one Simulation: the first call
// consumed the generators' streams and the fleet's state.
var ErrAlreadyRan = errors.New("sim: simulation already ran")

// Run executes the simulation for cfg.Duration of virtual time and
// returns its results. A Simulation runs once; a second call returns
// ErrAlreadyRan.
func (s *Simulation) Run() (*Results, error) {
	return s.RunContext(context.Background())
}

// RunContext is Run with cancellation: the engine polls ctx every few
// thousand events (microseconds of wall time), so canceling a long run
// returns promptly with ctx.Err() and no results. The poll does not
// perturb the event stream — a run that is never canceled is bit-identical
// to Run.
func (s *Simulation) RunContext(ctx context.Context) (*Results, error) {
	if s.ran {
		return nil, ErrAlreadyRan
	}
	s.ran = true
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Sequence numbers are assigned at Schedule time and break same-instant
	// ties, so this order is part of the schedule. The two after the
	// census are the in-memory-only subsystems, no-ops unless configured.
	for _, schedule := range []func() error{
		s.scheduleGenerators, s.scheduleMeasurement, s.schedulePlacement, s.scheduleCensus,
		s.scheduleFaults, s.scheduleReconcile, s.scheduleSwitchAndHooks,
	} {
		if err := schedule(); err != nil {
			return nil, err
		}
	}
	if done := ctx.Done(); done != nil {
		poll := func() bool {
			select {
			case <-done:
				return true
			default:
				return false
			}
		}
		s.engine.SetInterrupt(poll)
		defer s.engine.SetInterrupt(nil)
		if s.dispEng != s.engine {
			s.dispEng.SetInterrupt(poll)
			defer s.dispEng.SetInterrupt(nil)
		}
	}
	if s.sharded {
		if err := s.runSharded(ctx); err != nil {
			return nil, err
		}
	} else {
		s.engine.Run(s.cfg.Duration)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.results(), nil
}

// scheduleSwitchAndHooks arms the workload switch and the caller's At
// hooks, last in the schedule.
func (s *Simulation) scheduleSwitchAndHooks() error {
	if sw := s.cfg.WorkloadSwitch; sw.To != nil {
		if err := s.engine.Schedule(sw.At, func(time.Duration) { s.gen = sw.To }); err != nil {
			return fmt.Errorf("sim: scheduling workload switch: %w", err)
		}
	}
	for _, h := range s.hooks {
		if err := s.engine.Schedule(h.at, func(time.Duration) { h.fn() }); err != nil {
			return fmt.Errorf("sim: scheduling hook at %v: %w", h.at, err)
		}
	}
	return nil
}

// scheduleGenerators starts one request stream per gateway, each at its
// Pacing.Phase. Every backbone node is a gateway (paper §6.1).
func (s *Simulation) scheduleGenerators() error {
	n := s.topo.NumNodes()
	pace := GatewayPacing(&s.cfg)
	for i := 0; i < n; i++ {
		gw := &gateway{s: s, g: topology.NodeID(i), pace: pace}
		if err := s.dispEng.ScheduleSorted(pace.Phase(gw.g, n), gw); err != nil {
			return fmt.Errorf("sim: scheduling generator %d: %w", i, err)
		}
	}
	return nil
}

// Pacing is a gateway's request clock (§6.1): a request every Spacing, or
// Poisson arrivals at that mean. The loop's generators and FreeDriver use it.
type Pacing struct {
	Spacing time.Duration
	Poisson bool
}

// GatewayPacing is the pacing of cfg's gateways.
func GatewayPacing(cfg *Config) Pacing {
	return Pacing{time.Duration(float64(time.Second) / cfg.NodeRequestRPS), cfg.PoissonArrivals}
}

// Phase is gateway g of n's first firing, spread over one spacing so the
// gateways do not fire in lockstep.
func (p Pacing) Phase(g topology.NodeID, n int) time.Duration {
	return p.Spacing * time.Duration(g) / time.Duration(n)
}

// Gap is the wait before a gateway's next request: under Poisson one draw
// from rng, at least 1 ns so the stream advances.
func (p Pacing) Gap(rng *rand.Rand) time.Duration {
	if !p.Poisson {
		return p.Spacing
	}
	return max(time.Nanosecond, time.Duration(rng.ExpFloat64()*float64(p.Spacing)))
}

// gateway is one node's request stream, waiting in the dispatch engine's
// sorted run: each firing issues a request and reschedules it at or near
// the run's tail, one gap ahead.
type gateway struct {
	s    *Simulation
	g    topology.NodeID
	pace Pacing
	// schedAt is when this firing was (re)scheduled — the instant its
	// serial sequence number was assigned. Sharded runs stamp it onto
	// deliveries as the tie-breaking ParentAt (see shards.go).
	schedAt time.Duration
}

func (gw *gateway) Fire(now time.Duration) {
	s, g := gw.s, gw.g
	s.dispatch(now, gw.schedAt, g, s.gen.Next(g, s.rngs[g]))
	next := gw.pace.Gap(s.rngs[g])
	if now+next <= s.cfg.Duration {
		gw.schedAt = now
		// Rescheduling forward in time cannot fail.
		_ = s.dispEng.ScheduleSorted(now+next, gw)
	}
}

// dispatch runs one request through the paper's pipeline: gateway ->
// redirector (UDP, latency only) -> chosen host (UDP) -> FCFS service ->
// response along the preference path back to the gateway. schedAt is the
// instant the calling gateway event was scheduled; serial runs ignore it,
// sharded runs fold it into the delivery's ordering stamp. The redirector
// mutates its distribution state (request counts, choice rotation) inside
// Choose, so this instant is part of the schedule on every fleet.
func (s *Simulation) dispatch(t0, schedAt time.Duration, g topology.NodeID, id object.ID) {
	red := RedirectorIndex(id, len(s.redLocs))
	loc := s.redLocs[red]
	if s.haveLinkFaults && !s.net.PathUp(s.routes.Path(g, loc)) {
		s.col.RecordFailedRequest(t0) // redirector unreachable: request lost
		return
	}
	d1 := s.routes.Distance(g, loc)
	t1 := s.net.ControlLatency(t0, d1)
	h, out := s.fleet.Choose(t1, red, g, id)
	if out != OK {
		if out == Lost {
			s.markDown(t1, loc) // the redirector's node is gone
		} else {
			s.droppedChoices++ // no replica to serve from
		}
		s.col.RecordFailedRequest(t1)
		return
	}
	d2 := s.routes.Distance(loc, h)
	t2 := s.net.ControlLatency(t1, d2)
	r := s.disp.newRequest()
	*r = request{s: s, g: g, h: h, id: id, t0: t0, phase: reqArrive}
	if !s.sharded {
		// ControlLatency is linear in hops, so t2 - t0 is the same for every
		// request of one hop count, and gateways fire in time order: each
		// hop count's arrivals are dispatched in (t2, seq) order, and only
		// the head of their FIFO waits in the event heap (see reqFIFO).
		r.doneAt, r.seq, r.hops = t2, s.engine.ReserveSeq(), int32(d1+d2)
		s.arrivals[r.hops].push(s.disp, r)
		return
	}
	// Deliver into the chosen host's shard wheel. The stamp reconstructs
	// the serial engine's tie-breaking order: dispatch runs serially, so
	// dispSeq is exactly the order arrivals would have drawn sequence
	// numbers, and (t0, schedAt) resolves ties against shard-local events
	// stamped elsewhere. The wheel asserts t2 is outside the shard's
	// committed window — the lookahead invariant.
	s.dispSeq++
	s.laneOf[r.h].wheel.Push(t2, simevent.Stamp{
		SchedAt:  t0,
		ParentAt: schedAt,
		Plane:    simevent.PlaneDelivery,
		Seq:      s.dispSeq,
	}, r)
}

// every runs tick at first and then once per interval until the horizon,
// on the global plane.
func (s *Simulation) every(first, interval time.Duration, tick func(now time.Duration)) error {
	var fire simevent.Event
	fire = func(now time.Duration) {
		tick(now)
		if now+interval <= s.cfg.Duration {
			_ = s.engine.Schedule(now+interval, fire)
		}
	}
	return s.engine.Schedule(first, fire)
}

// scheduleMeasurement drives the periodic load measurement (paper §2.1):
// close every server's interval, retire estimates, and sample the
// Figure 8a/8b series. A tracked host that does not answer samples as
// zero.
func (s *Simulation) scheduleMeasurement() error {
	interval := server.MeasurementInterval
	return s.every(interval, interval, func(now time.Duration) {
		var maxLoad, actual, lower, upper float64
		for i := range s.down {
			h := topology.NodeID(i)
			a, lo, up, ok := s.fleet.Measure(now, h)
			if !ok {
				s.markDown(now, h)
				continue
			}
			maxLoad = max(maxLoad, a)
			if h == s.cfg.TrackedHost {
				actual, lower, upper = a, lo, up
			}
		}
		s.col.RecordMaxLoad(now, maxLoad)
		s.col.RecordHostLoad(now, actual, lower, upper)
	})
}

// schedulePlacement drives each host's periodic placement pass, unless
// the placement is frozen (the static baseline). Hosts are staggered
// across the placement interval.
func (s *Simulation) schedulePlacement() error {
	if !s.cfg.DynamicPlacement {
		return nil
	}
	n := len(s.down)
	interval := s.cfg.PlacementInterval
	for i := 0; i < n; i++ {
		h := topology.NodeID(i)
		offset := interval * time.Duration(i) / time.Duration(n)
		err := s.every(interval+offset, interval, func(now time.Duration) {
			if !s.down[h] && !s.fleet.Place(now, h) {
				s.markDown(now, h)
			}
		})
		if err != nil {
			return fmt.Errorf("sim: scheduling placement for host %d: %w", i, err)
		}
	}
	return nil
}

// scheduleCensus samples the average replica count per object once per
// placement interval (Table 2's replica metric) and, with a replica floor,
// the objects below it; below-floor object-seconds integrate count x
// interval.
func (s *Simulation) scheduleCensus() error {
	interval := s.cfg.PlacementInterval
	return s.every(interval, interval, func(now time.Duration) {
		avg, below := s.census(now)
		s.col.RecordReplicaCensus(now, avg)
		if s.cfg.Protocol.ReplicaFloor > 1 {
			s.col.RecordBelowFloor(now, below, float64(below)*interval.Seconds())
		}
	})
}

// census asks every redirector for its replica count and returns the mean
// number of physical replicas per object and the objects below the floor.
// A redirector that does not answer contributes nothing.
func (s *Simulation) census(now time.Duration) (avg float64, below int) {
	total := 0
	for red, loc := range s.redLocs {
		t, b, ok := s.fleet.Census(red)
		if !ok {
			s.markDown(now, loc)
			continue
		}
		total += t
		below += b
	}
	return float64(total) / float64(s.cfg.Universe.Count), below
}

// Hosts exposes the in-memory fleet's protocol hosts. Like the accessors
// below it is for read-only use by tests and tools, on simulations built
// with New.
func (s *Simulation) Hosts() []*protocol.Host {
	hosts := make([]*protocol.Host, len(s.mem.machines))
	for i, m := range s.mem.machines {
		hosts[i] = m.Host
	}
	return hosts
}

// Servers exposes the server models.
func (s *Simulation) Servers() []*server.Server {
	servers := make([]*server.Server, len(s.mem.machines))
	for i, m := range s.mem.machines {
		servers[i] = m.Server
	}
	return servers
}

// Redirectors exposes the redirectors.
func (s *Simulation) Redirectors() []*protocol.Redirector { return s.mem.redirectors }

// Network exposes the network model.
func (s *Simulation) Network() *simnet.Network { return s.net }

// trimSeries caps a series at the number of full buckets the run covers,
// dropping the trailing partial bucket (deliveries completing just past
// the horizon land there and would skew per-second rates).
func (s *Simulation) trimSeries(points []metrics.Point) []metrics.Point {
	full := int(s.cfg.Duration / s.cfg.MetricsBucket)
	if full < 1 {
		full = 1
	}
	if len(points) > full {
		return points[:full]
	}
	return points
}

// results assembles the run's outputs.
func (s *Simulation) results() *Results {
	horizon := s.cfg.Duration
	// Fold shard lanes' commutative accumulators into the main sinks
	// before anything below reads them (no-op for serial runs).
	s.mergeLanes()
	// A final anti-entropy pass closes the run: any orphan or stale record
	// left by notifications lost since the last tick is healed before the
	// invariant check, mirroring what the next periodic pass would do.
	if s.ctrl != nil {
		s.reconcile(horizon)
	}
	s.closeOutages(horizon)
	// The fleet reports first: what it still holds (an external fleet's
	// undrained event logs) lands in the collector before the series below
	// are read.
	r := &Results{}
	s.fleet.Stats(r)
	r.AvgReplicas, _ = s.census(horizon)

	r.WorkloadName = s.cfg.Workload.Name()
	r.Policy = s.cfg.Policy
	r.Dynamic = s.cfg.DynamicPlacement
	r.Duration = horizon
	r.Seed = s.cfg.Seed
	r.Bandwidth = s.trimSeries(s.col.BandwidthSeries())
	r.Latency = s.trimSeries(s.col.LatencySeries())
	r.LatencyP99 = s.trimSeries(s.col.LatencyQuantileSeries(0.99))
	r.OverheadPct = s.trimSeries(s.col.OverheadPercentSeries())
	r.MaxLoad = s.col.MaxLoadSeries()
	r.HostLoad = s.col.HostLoadSeries()
	r.Replicas = s.col.ReplicaSeries()
	r.Counters = s.col.Counters()
	r.OverheadPercent = s.col.OverheadPercent()
	r.DroppedChoices = s.droppedChoices
	r.TimedOutRequests = s.timedOut
	r.Failures = s.failures
	r.Recoveries = s.recoveries
	// A fleet that lost a node had a fault, configured or not.
	r.FaultsEnabled = s.cfg.Faults.Enabled() || s.failures > 0
	r.LinkFailures = s.linkFailures
	r.LinkRecoveries = s.linkRecoveries
	r.FailedRequests = r.Counters.FailedRequests
	r.FailedSeries = s.trimSeries(s.col.FailedRequestSeries())
	r.Outages = s.col.Outages()
	r.UnavailObjSecs = s.col.UnavailableObjectSeconds()
	r.BelowFloor = s.col.BelowFloorSeries()
	r.BelowFloorObjSecs = s.col.BelowFloorObjectSeconds()
	r.RepairByteHops = s.repairByteHops
	r.TrackedHost = s.cfg.TrackedHost
	r.HighWatermark = s.cfg.Protocol.HighWatermark
	r.SandwichSlackRPS = 1e-9
	if s.ctrl != nil {
		r.CtrlEnabled = true
		r.CtrlStats = s.ctrl.plane.Stats()
		r.OrphansHealed = s.ctrl.orphansHealed
		r.StaleAffinityRepaired = s.ctrl.staleAffinity
		r.GhostsRemoved = s.ctrl.ghostsRemoved
		r.ReconcileRuns = s.ctrl.reconcileRuns
		r.ReconcileByteHops = s.ctrl.reconcileByteHops
	}
	r.StoreEnabled = !s.cfg.Store.IsDefault()
	r.StoreSpec = s.cfg.Store.String()
	r.BandwidthStats = metrics.Summarize(r.Bandwidth, 2)
	r.LatencyStats = metrics.Summarize(r.Latency, 2)
	r.AdjustmentTime, r.Adjusted = metrics.AdjustmentTime(r.Bandwidth, 1.10)
	r.MaxLoadPeak = metrics.MaxValue(r.MaxLoad)
	if len(r.MaxLoad) > 0 {
		tail := r.MaxLoad[len(r.MaxLoad)*3/4:]
		r.MaxLoadSettled = metrics.MaxValue(tail)
	}
	r.SandwichViolations = metrics.SandwichViolations(r.HostLoad, r.SandwichSlackRPS)
	if math.IsNaN(r.BandwidthStats.ReductionPercent) {
		r.BandwidthStats.ReductionPercent = 0
	}
	return r
}
