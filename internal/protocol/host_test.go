package protocol

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"radar/internal/object"
	"radar/internal/routing"
	"radar/internal/store"
	"radar/internal/topology"
)

// fakeLoads is a hand-set LoadSource.
type fakeLoads struct {
	total  float64
	perObj map[object.ID]float64
}

func (f *fakeLoads) Load() float64 { return f.total }

func (f *fakeLoads) ObjectLoad(id object.ID) float64 { return f.perObj[id] }

type copyRec struct {
	from, to topology.NodeID
	id       object.ID
}

// cluster is an in-memory wiring of hosts + one redirector for unit tests.
type cluster struct {
	topo   *topology.Topology
	routes *routing.Table
	red    *Redirector
	hosts  []*Host
	loads  []*fakeLoads
	copies []copyRec
	// events are the decisions the hosts recorded, in order.
	events []Event
	// down are the hosts the handshake transport knows down: a handshake
	// to one answers CreateDown. Load reports still answer for them.
	down map[topology.NodeID]bool
}

func newCluster(t testing.TB, topo *topology.Topology, params Params) *cluster {
	t.Helper()
	routes := routing.New(topo)
	red, err := NewRedirector(routes.MinAvgDistanceNode(), routes, PolicyPaper, params.DistConstant, testObjects, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := &cluster{topo: topo, routes: routes, red: red, down: map[topology.NodeID]bool{}}
	n := topo.NumNodes()
	c.hosts = make([]*Host, n)
	c.loads = make([]*fakeLoads, n)
	for i := 0; i < n; i++ {
		c.loads[i] = &fakeLoads{perObj: make(map[object.ID]float64)}
		env := Env{
			Routes:        routes,
			RedirectorFor: func(object.ID) RedirectorControl { return c.red },
			LoadReport: func(p topology.NodeID, now time.Duration, id object.ID) (LoadReport, bool) {
				return c.hosts[p].LoadReport(now, id), true
			},
			SendCreateObj: c.send,
			Store:         store.Spec{}.Build(1),
			Observer: Recorder(func(e Event) {
				if e.Kind == EventCopy {
					c.copies = append(c.copies, copyRec{from: topology.NodeID(e.From), to: topology.NodeID(e.To), id: object.ID(e.Object)})
					return
				}
				c.events = append(c.events, e)
			}),
		}
		h, err := NewHost(topology.NodeID(i), params, env, c.loads[i])
		if err != nil {
			t.Fatal(err)
		}
		c.hosts[i] = h
	}
	return c
}

// recorded returns the recorded decisions of one kind, in order.
func (c *cluster) recorded(kind string) []Event {
	var out []Event
	for _, e := range c.events {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// decide runs one placement pass on host n at now and returns what the
// pass counted: the change of the host's HostStats.
func (c *cluster) decide(n topology.NodeID, now time.Duration) HostStats {
	h := c.hosts[n]
	before := h.Stats
	h.DecidePlacement(now)
	d := h.Stats
	dv, bv := reflect.ValueOf(&d).Elem(), reflect.ValueOf(before)
	for i := 0; i < dv.NumField(); i++ {
		dv.Field(i).SetInt(dv.Field(i).Int() - bv.Field(i).Int())
	}
	return d
}

// loadMoves counts the offload protocol's moves.
func (s HostStats) loadMoves() int64 { return s.LoadMigrations + s.LoadReplications }

// fig3Moves counts the Fig. 3 pass's own moves: geo migrations and
// replications, drops and affinity decrements.
func (s HostStats) fig3Moves() int64 {
	return s.GeoMigrations + s.GeoReplications + s.Drops + s.AffinityDecrs
}

// seed places an object on a host and registers it at the redirector.
func (c *cluster) seed(id object.ID, host topology.NodeID) {
	c.hosts[host].SeedObject(id)
	c.red.NotifyReplicaChange(id, host, 1)
}

// deliver runs req's CreateObj handler on its target at time at, as a
// control-plane transport does.
func (c *cluster) deliver(at time.Duration, req CreateObjRequest) bool {
	return c.hosts[req.To].CreateObj(at, req)
}

// send is the cluster's handshake transport, the in-memory fleet's
// reliable one: nothing to a down host, otherwise the verdict at once.
func (c *cluster) send(at time.Duration, req CreateObjRequest, tok uint64) (CreateObjStatus, uint64, time.Duration) {
	switch {
	case c.down[req.To]:
		return CreateDown, tok, at
	case c.deliver(at, req):
		return CreateAccepted, 0, at
	}
	return CreateRefused, 0, at
}

// checkSubsetInvariant asserts the redirector's recorded replicas all
// exist on their hosts.
func (c *cluster) checkSubsetInvariant(t *testing.T) {
	t.Helper()
	for _, id := range recordedIDs(c.red) {
		for _, rep := range c.red.AppendReplicas(nil, id) {
			if !c.hosts[rep.Host].Has(id) {
				t.Fatalf("redirector records replica of %d on host %d, but host lacks it", id, rep.Host)
			}
			if got := c.hosts[rep.Host].Affinity(id); got != rep.Aff {
				t.Fatalf("object %d host %d affinity: redirector %d, host %d", id, rep.Host, rep.Aff, got)
			}
		}
	}
}

const obj = object.ID(3)

func TestGeoMigrationToFarthestQualified(t *testing.T) {
	c := newCluster(t, topology.Line(6), DefaultParams())
	c.seed(obj, 0)
	// 70 of 100 requests come from the far end: every node on the path
	// 0..5 appears in 70% of paths; the farthest (node 5) must win.
	for i := 0; i < 70; i++ {
		c.hosts[0].OnRequest(obj, 5)
	}
	for i := 0; i < 30; i++ {
		c.hosts[0].OnRequest(obj, 0)
	}
	pass := c.decide(0, 100*time.Second)
	if pass.GeoMigrations != 1 {
		t.Fatalf("Migrated = %d, want 1", pass.GeoMigrations)
	}
	if c.hosts[0].Has(obj) {
		t.Error("source still holds the object after migration")
	}
	if !c.hosts[5].Has(obj) {
		t.Error("object not on farthest qualified candidate")
	}
	if len(c.copies) != 1 || c.copies[0] != (copyRec{from: 0, to: 5, id: obj}) {
		t.Errorf("copies = %v, want one 0->5 transfer", c.copies)
	}
	if m := c.recorded(EventMigrate); len(m) != 1 || m[0].Move != "geo" {
		t.Errorf("observer migrates = %v, want one geo move", m)
	}
	c.checkSubsetInvariant(t)
}

func TestNoMigrationBelowRatio(t *testing.T) {
	c := newCluster(t, topology.Line(6), DefaultParams())
	c.seed(obj, 0)
	// Exactly 60% foreign is NOT enough (must exceed MIGR_RATIO).
	for i := 0; i < 60; i++ {
		c.hosts[0].OnRequest(obj, 5)
	}
	for i := 0; i < 40; i++ {
		c.hosts[0].OnRequest(obj, 0)
	}
	pass := c.decide(0, 100*time.Second)
	if pass.GeoMigrations != 0 {
		t.Fatalf("Migrated = %d at exactly MIGR_RATIO, want 0", pass.GeoMigrations)
	}
	// It should replicate instead: ua = 1 req/s > m and 0.6 > REPL_RATIO.
	if pass.GeoReplications != 1 {
		t.Fatalf("Replicated = %d, want 1", pass.GeoReplications)
	}
	if !c.hosts[0].Has(obj) || !c.hosts[5].Has(obj) {
		t.Error("replication should leave copies on both source and target")
	}
	c.checkSubsetInvariant(t)
}

func TestGeoReplicationRequiresThreshold(t *testing.T) {
	params := DefaultParams()
	c := newCluster(t, topology.Line(6), params)
	c.seed(obj, 0)
	// 15 requests over 100s = 0.15 req/s < m = 0.18: no replication even
	// though the foreign share (1/3 > 1/6) qualifies.
	for i := 0; i < 10; i++ {
		c.hosts[0].OnRequest(obj, 0)
	}
	for i := 0; i < 5; i++ {
		c.hosts[0].OnRequest(obj, 5)
	}
	pass := c.decide(0, 100*time.Second)
	if pass.GeoReplications != 0 || pass.GeoMigrations != 0 || pass.Drops != 0 {
		t.Fatalf("pass counted %+v, want no action below replication threshold", pass)
	}
}

func TestColdObjectDropsWhenSafe(t *testing.T) {
	c := newCluster(t, topology.Line(4), DefaultParams())
	c.seed(obj, 0)
	c.seed(obj, 2) // second replica so the drop is legal
	c.hosts[0].OnRequest(obj, 0)
	// 1 request / 100s = 0.01 < u = 0.03.
	pass := c.decide(0, 100*time.Second)
	if pass.Drops != 1 {
		t.Fatalf("Dropped = %d, want 1", pass.Drops)
	}
	if c.hosts[0].Has(obj) {
		t.Error("cold replica still present")
	}
	if len(c.red.ReplicaHosts(obj, nil)) != 1 {
		t.Errorf("redirector replica count = %d, want 1", len(c.red.ReplicaHosts(obj, nil)))
	}
	c.checkSubsetInvariant(t)
}

func TestLastReplicaNeverDropped(t *testing.T) {
	c := newCluster(t, topology.Line(4), DefaultParams())
	c.seed(obj, 0)
	// Zero requests: clearly below deletion threshold.
	pass := c.decide(0, 100*time.Second)
	if pass.Drops != 0 {
		t.Fatalf("Dropped = %d, want 0 (sole replica)", pass.Drops)
	}
	if !c.hosts[0].Has(obj) {
		t.Fatal("sole replica was dropped")
	}
	c.checkSubsetInvariant(t)
}

func TestAffinityDecrementBeforeDrop(t *testing.T) {
	c := newCluster(t, topology.Line(4), DefaultParams())
	c.seed(obj, 0)
	c.hosts[0].objs.get(obj).aff = 3
	c.red.NotifyReplicaChange(obj, 0, 3)
	pass := c.decide(0, 100*time.Second)
	if pass.AffinityDecrs != 1 || pass.Drops != 0 {
		t.Fatalf("pass counted %+v, want one affinity decrement", pass)
	}
	if got := c.hosts[0].Affinity(obj); got != 2 {
		t.Fatalf("affinity = %d, want 2", got)
	}
	c.checkSubsetInvariant(t)
}

func TestCreateObjRefusesAboveLowWatermark(t *testing.T) {
	params := DefaultParams()
	c := newCluster(t, topology.Line(6), params)
	c.seed(obj, 0)
	c.loads[5].total = params.LowWatermark + 1 // farthest candidate busy
	for i := 0; i < 70; i++ {
		c.hosts[0].OnRequest(obj, 5)
	}
	for i := 0; i < 30; i++ {
		c.hosts[0].OnRequest(obj, 0)
	}
	pass := c.decide(0, 100*time.Second)
	// Host 5 refuses; the next farthest qualified candidate (4) accepts.
	if pass.GeoMigrations != 1 {
		t.Fatalf("Migrated = %d, want 1 via fallback candidate", pass.GeoMigrations)
	}
	if !c.hosts[4].Has(obj) {
		t.Error("object not on fallback candidate 4")
	}
	if r := c.recorded(EventRefuse); len(r) != 1 || r[0].To != 5 {
		t.Errorf("refusals = %v, want one from host 5", r)
	}
	if c.hosts[5].Stats.RefusalsSent != 1 {
		t.Errorf("host 5 RefusalsSent = %d, want 1", c.hosts[5].Stats.RefusalsSent)
	}
}

func TestMigrateGuardAgainstViciousCycle(t *testing.T) {
	// A migration that would push the recipient from below lw to above hw
	// must be refused; the same load as a replication must be accepted
	// (the paper deliberately omits the guard for replications).
	params := DefaultParams()
	c := newCluster(t, topology.Line(3), params)
	c.seed(obj, 0)
	c.loads[2].total = params.LowWatermark - 1 // 79
	unitLoad := (params.HighWatermark - (params.LowWatermark - 1) + 1) / 4

	if c.hosts[2].CreateObj(50*time.Second, CreateObjRequest{Method: Migrate, Object: obj, UnitLoad: unitLoad, SrcAff: 1}) {
		t.Fatal("migration accepted although 4*unitLoad would cross hw")
	}
	if !c.hosts[2].CreateObj(50*time.Second, CreateObjRequest{Method: Replicate, Object: obj, UnitLoad: unitLoad, SrcAff: 1}) {
		t.Fatal("replication refused although load below lw")
	}
	if !c.hosts[2].Has(obj) {
		t.Fatal("replica not created")
	}
	// Upper estimate must now include the Theorem 2 bound.
	wantUpper := (params.LowWatermark - 1) + 4*unitLoad
	if got := c.hosts[2].Estimator().LoadForAccept(c.loads[2].Load()); got != wantUpper {
		t.Fatalf("upper estimate = %v, want %v", got, wantUpper)
	}
}

func TestCreateObjIncrementsAffinity(t *testing.T) {
	c := newCluster(t, topology.Line(3), DefaultParams())
	c.seed(obj, 1)
	if !c.hosts[1].CreateObj(time.Second, CreateObjRequest{Method: Replicate, Object: obj, UnitLoad: 1, SrcAff: 1}) {
		t.Fatal("replication refused")
	}
	if got := c.hosts[1].Affinity(obj); got != 2 {
		t.Fatalf("affinity = %d, want 2 (no duplicate copy)", got)
	}
	if len(c.copies) != 0 {
		t.Fatalf("object copied although replica already present: %v", c.copies)
	}
	c.checkSubsetInvariant(t)
}

func TestOffloadingModeHysteresis(t *testing.T) {
	params := DefaultParams()
	c := newCluster(t, topology.Line(3), params)
	h := c.hosts[0]
	c.loads[0].total = params.HighWatermark + 5
	h.DecidePlacement(100 * time.Second)
	if !h.offloading {
		t.Fatal("host above hw not offloading")
	}
	// Between lw and hw: mode must stick.
	c.loads[0].total = (params.HighWatermark + params.LowWatermark) / 2
	h.DecidePlacement(200 * time.Second)
	if !h.offloading {
		t.Fatal("offloading mode did not stick between watermarks")
	}
	c.loads[0].total = params.LowWatermark - 5
	h.DecidePlacement(300 * time.Second)
	if h.offloading {
		t.Fatal("host below lw still offloading")
	}
}

// overload prepares host 0 with local-only demand above hw so the geo pass
// can move nothing and offloading must engage.
func overloadHostZero(t *testing.T, c *cluster, params Params, objects int, reqPerObj int, perObj float64) {
	t.Helper()
	c.loads[0].total = params.HighWatermark * 2
	for i := 0; i < objects; i++ {
		id := object.ID(100 + i)
		c.seed(id, 0)
		c.loads[0].perObj[id] = perObj
		for r := 0; r < reqPerObj; r++ {
			c.hosts[0].OnRequest(id, 0) // self-gateway: no foreign candidates
		}
	}
}

func TestOffloadReplicatesHotObjects(t *testing.T) {
	params := DefaultParams()
	c := newCluster(t, topology.Line(4), params)
	// 4 objects, 100 requests each over 100s: ua = 1 > m -> replicate.
	overloadHostZero(t, c, params, 4, 100, 10)
	pass := c.decide(0, 100*time.Second)
	if pass.OffloadRuns != 1 {
		t.Fatalf("offload did not run: %+v", pass)
	}
	if pass.loadMoves() == 0 {
		t.Fatal("offload moved nothing")
	}
	if len(c.recorded(EventReplicate)) == 0 {
		t.Fatal("expected load replications")
	}
	for _, m := range c.recorded(EventReplicate) {
		if m.Move != "load" {
			t.Errorf("offload produced %v move, want load", m.Move)
		}
	}
	// Hot objects must be replicated, never migrated (would undo a prior
	// geo-replication).
	if m := c.recorded(EventMigrate); len(m) != 0 {
		t.Errorf("offload migrated hot objects: %v", m)
	}
	for i := 0; i < 4; i++ {
		if !c.hosts[0].Has(object.ID(100 + i)) {
			t.Errorf("source lost hot object %d during offload-by-replication", 100+i)
		}
	}
	c.checkSubsetInvariant(t)
}

func TestOffloadMigratesWarmObjects(t *testing.T) {
	params := DefaultParams()
	c := newCluster(t, topology.Line(4), params)
	// 16 requests per object over 100s: ua = 0.16 <= m = 0.18 -> migrate.
	overloadHostZero(t, c, params, 4, 16, 10)
	pass := c.decide(0, 100*time.Second)
	if pass.OffloadRuns != 1 || pass.loadMoves() == 0 {
		t.Fatalf("offload did not move anything: %+v", pass)
	}
	if len(c.recorded(EventMigrate)) == 0 {
		t.Fatal("expected load migrations")
	}
	moved := 0
	for i := 0; i < 4; i++ {
		if !c.hosts[0].Has(object.ID(100 + i)) {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no object left the source")
	}
	c.checkSubsetInvariant(t)
}

func TestOffloadStopsAtRecipientWatermark(t *testing.T) {
	params := DefaultParams()
	c := newCluster(t, topology.Line(4), params)
	overloadHostZero(t, c, params, 10, 100, 18)
	// Each replication adds 4 * (180/10) = 72 to the recipient estimate;
	// recipient starts near lw so only ~1-2 moves fit below lw = 80.
	c.loads[1].total = 70
	c.loads[2].total = params.LowWatermark + 1 // ineligible
	c.loads[3].total = params.LowWatermark + 1 // ineligible
	pass := c.decide(0, 100*time.Second)
	if pass.OffloadRuns != 1 {
		t.Fatalf("offload did not run: %+v", pass)
	}
	if pass.loadMoves() == 0 || pass.loadMoves() > 2 {
		t.Fatalf("OffloadSent = %d, want 1-2 (recipient estimate caps bulk)", pass.loadMoves())
	}
}

// A recipient is judged against its own watermark, as its CreateObj judges
// it: a host ten times as strong keeps absorbing at a load twice the
// source's lw.
func TestOffloadJudgesRecipientByItsOwnWatermark(t *testing.T) {
	params := DefaultParams()
	c := newCluster(t, topology.Line(4), params)
	overloadHostZero(t, c, params, 10, 100, 4.5)
	c.hosts[1].params = params.Weighted(10)
	c.loads[1].total = 2 * params.LowWatermark
	c.loads[2].total = params.LowWatermark + 1 // ineligible
	c.loads[3].total = params.LowWatermark + 1 // ineligible
	pass := c.decide(0, 100*time.Second)
	if pass.OffloadRuns != 1 || pass.loadMoves() < 3 {
		t.Fatalf("offload to the strong host sent %d (%+v), want >= 3", pass.loadMoves(), pass)
	}
	for _, m := range c.recorded(EventReplicate) {
		if m.To != 1 {
			t.Errorf("offload replicated to host %d, want the strong host 1", m.To)
		}
	}
}

func TestOffloadBulkRelocation(t *testing.T) {
	// With a fresh recipient, a single placement run must move MANY
	// objects at once — the paper's en-masse relocation feature.
	params := DefaultParams()
	c := newCluster(t, topology.Line(4), params)
	overloadHostZero(t, c, params, 40, 16, 4.5) // warm objects, light enough for bulk moves
	pass := c.decide(0, 100*time.Second)
	if pass.OffloadRuns != 1 {
		t.Fatalf("offload did not run: %+v", pass)
	}
	if pass.loadMoves() < 3 {
		t.Fatalf("OffloadSent = %d, want >= 3 in one run (en-masse)", pass.loadMoves())
	}
}

func TestOffloadSkippedWhenGeoPassRelieves(t *testing.T) {
	// When the geo pass both relocates an object and brings the
	// lower-bound load estimate back under the high watermark, the host
	// waits for fresh measurements instead of offloading (Fig. 3).
	params := DefaultParams()
	c := newCluster(t, topology.Line(6), params)
	c.loads[0].total = params.HighWatermark + 10
	c.loads[0].perObj[obj] = 15 // migration sheds up to the full 15
	c.seed(obj, 0)
	for i := 0; i < 100; i++ {
		c.hosts[0].OnRequest(obj, 5) // 100% foreign: geo-migrates
	}
	pass := c.decide(0, 100*time.Second)
	if pass.GeoMigrations != 1 {
		t.Fatalf("Migrated = %d, want 1", pass.GeoMigrations)
	}
	if pass.OffloadRuns != 0 {
		t.Fatal("offload ran although the geo pass relieved the overload")
	}
}

func TestOffloadRunsWhenGeoPassInsufficient(t *testing.T) {
	// A geo move that cannot bring the estimate under hw must not starve
	// the offloading protocol: geo candidates lie only on preference
	// paths, so idle far-away hosts are reachable through Offload alone.
	params := DefaultParams()
	c := newCluster(t, topology.Line(6), params)
	c.loads[0].total = params.HighWatermark * 2
	c.loads[0].perObj[obj] = 1 // migration relief is negligible
	c.seed(obj, 0)
	for i := 0; i < 100; i++ {
		c.hosts[0].OnRequest(obj, 5)
	}
	pass := c.decide(0, 100*time.Second)
	if pass.GeoMigrations != 1 {
		t.Fatalf("Migrated = %d, want 1", pass.GeoMigrations)
	}
	if pass.OffloadRuns != 1 {
		t.Fatal("offload skipped although the host remains far above hw")
	}
}

func TestOffloadNoRecipient(t *testing.T) {
	params := DefaultParams()
	c := newCluster(t, topology.Line(3), params)
	overloadHostZero(t, c, params, 2, 100, 10)
	for i := 1; i < 3; i++ {
		c.loads[i].total = params.LowWatermark + 1
	}
	pass := c.decide(0, 100*time.Second)
	if pass.OffloadRuns != 1 || pass.loadMoves() != 0 {
		t.Fatalf("pass counted %+v, want offload attempted but nothing sent", pass)
	}
}

// TestCountsResetAfterPlacement: a placement pass ends the window. Every
// hosted state hands its tally row back, the store keeps the blocks the
// window used and they read zero, and the next window counts from zero;
// its own reset then keeps only the one block it needed. No row sees more
// than two gateways, so every row is a tally row.
func TestCountsResetAfterPlacement(t *testing.T) {
	c := newCluster(t, topology.Line(4), DefaultParams())
	h := c.hosts[0]
	c.seed(obj, 0)
	perBlock := 1 << h.cnts.shift / (1 + 2*rowTallies) // tally rows a block holds
	others := 2 * perBlock                             // each asked once: cold, but the sole replica stays
	for i := 0; i < others; i++ {
		c.seed(obj+1+object.ID(i), 0)
		h.OnRequest(obj+1+object.ID(i), 0)
	}
	window := func(now time.Duration) {
		t.Helper()
		for i := 0; i < 50; i++ {
			h.OnRequest(obj, topology.NodeID(2*(i%2))) // half local, half from node 2: below MIGR_RATIO
		}
		h.settle()
		st := h.objs.get(obj)
		if cnt := h.nodeCounts(st); st.total != 50 || !slices.Equal(cnt, []int32{50, 25, 25, 0}) {
			t.Fatalf("at %v: Total %d, counts %v, want 50 and [50 25 25 0]", now, st.total, cnt)
		}
		h.DecidePlacement(now)
		if !h.Has(obj) {
			t.Fatalf("at %v: the pass moved the object away", now)
		}
		checkCountsReset(t, h, fmt.Sprintf("pass at %v", now))
	}
	window(100 * time.Second)
	if want := (others + perBlock) / perBlock; len(h.cnts.blocks) != want {
		t.Fatalf("first reset kept %d blocks, want the %d its window used", len(h.cnts.blocks), want)
	}
	window(200 * time.Second)
	if len(h.cnts.blocks) != 1 {
		t.Fatalf("second reset kept %d blocks, want the one its window used", len(h.cnts.blocks))
	}
}

func TestCanReplicateGate(t *testing.T) {
	params := DefaultParams()
	c := newCluster(t, topology.Line(6), params)
	for i := range c.hosts {
		c.hosts[i].env.CanReplicate = func(object.ID, int) bool { return false }
	}
	c.seed(obj, 0)
	for i := 0; i < 70; i++ {
		c.hosts[0].OnRequest(obj, 0)
	}
	for i := 0; i < 30; i++ {
		c.hosts[0].OnRequest(obj, 5)
	}
	pass := c.decide(0, 100*time.Second)
	if pass.GeoReplications != 0 {
		t.Fatal("replication happened despite CanReplicate gate")
	}
	// Migration is never gated: flip demand so migration triggers.
	for i := 0; i < 100; i++ {
		c.hosts[0].OnRequest(obj, 5)
	}
	pass = c.decide(0, 200*time.Second)
	if pass.GeoMigrations != 1 {
		t.Fatalf("Migrated = %d, want 1 (gate must not block migration)", pass.GeoMigrations)
	}
}

func TestSelfGatewayPathHasNoCandidates(t *testing.T) {
	c := newCluster(t, topology.Line(4), DefaultParams())
	c.seed(obj, 0)
	for i := 0; i < 1000; i++ {
		c.hosts[0].OnRequest(obj, 0)
	}
	pass := c.decide(0, 100*time.Second)
	if pass.GeoMigrations != 0 || pass.GeoReplications != 0 {
		t.Fatalf("pass counted %+v: purely local demand must not relocate", pass)
	}
}

func TestOnRequestForUnknownObjectIgnored(t *testing.T) {
	c := newCluster(t, topology.Line(3), DefaultParams())
	c.hosts[0].OnRequest(object.ID(999), 2) // must not panic or create state
	if c.hosts[0].NumObjects() != 0 {
		t.Fatal("unknown-object request created state")
	}
}

func TestNewHostValidation(t *testing.T) {
	topo := topology.Line(3)
	routes := routing.New(topo)
	red, err := NewRedirector(0, routes, PolicyPaper, 2, testObjects, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	loads := &fakeLoads{perObj: map[object.ID]float64{}}
	goodEnv := Env{
		Routes:        routes,
		RedirectorFor: func(object.ID) RedirectorControl { return red },
		LoadReport:    func(topology.NodeID, time.Duration, object.ID) (LoadReport, bool) { return LoadReport{}, false },
		SendCreateObj: func(at time.Duration, _ CreateObjRequest, tok uint64) (CreateObjStatus, uint64, time.Duration) {
			return CreateDown, tok, at
		},
		Store:    store.Spec{}.Build(1),
		Observer: Recorder(func(Event) {}),
	}
	if _, err := NewHost(0, Params{}, goodEnv, loads); err == nil {
		t.Error("invalid params accepted")
	}
	for name, unset := range map[string]func(*Env){
		"Routes":        func(e *Env) { e.Routes = nil },
		"SendCreateObj": func(e *Env) { e.SendCreateObj = nil },
		"Store":         func(e *Env) { e.Store = nil },
		"Observer":      func(e *Env) { e.Observer = nil },
	} {
		bad := goodEnv
		unset(&bad)
		if _, err := NewHost(0, DefaultParams(), bad, loads); !errors.Is(err, ErrNilDependency) {
			t.Errorf("nil %s: err %v, want ErrNilDependency", name, err)
		}
	}
	if _, err := NewHost(0, DefaultParams(), goodEnv, nil); err == nil {
		t.Error("nil loads accepted")
	}
	if _, err := NewHost(0, DefaultParams(), goodEnv, loads); err != nil {
		t.Errorf("valid host rejected: %v", err)
	}
}

func TestDecidePlacementZeroPeriod(t *testing.T) {
	c := newCluster(t, topology.Line(3), DefaultParams())
	c.seed(obj, 0)
	pass := c.decide(0, 0)
	if pass != (HostStats{}) || len(c.events) != 0 {
		t.Fatalf("zero-period placement acted: %+v, %v", pass, c.events)
	}
}
