package protocol

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"testing"
	"time"
	"unsafe"

	"radar/internal/object"
	"radar/internal/routing"
	"radar/internal/topology"
	"radar/internal/workload"
)

// hostedIDs returns h's hosted IDs, ascending.
func hostedIDs(h *Host) []object.ID { return tableIDs(&h.objs) }

// tableIDs returns the IDs the states of tab carry, in table order.
func tableIDs(tab *objTable) []object.ID {
	ids := make([]object.ID, len(tab.sts))
	for i, st := range tab.sts {
		ids[i] = object.ID(st.id)
	}
	return ids
}

// TestObjStateIs24Bytes pins the per-replica record the table holds by
// value: ID, affinity, count row, Total and acquisition time.
func TestObjStateIs24Bytes(t *testing.T) {
	if size := unsafe.Sizeof(objState{}); size != 24 {
		t.Fatalf("objState is %d bytes, want 24", size)
	}
}

// tableModel is the objTable oracle: the contents every hosted ID's state
// must read, each written with a marker no other state carries, and each
// ID's deferred move.
type tableModel struct {
	tab      objTable
	sts      map[object.ID]objState
	deferred map[object.ID]move
	marker   int32
}

func newTableModel() *tableModel {
	return &tableModel{sts: make(map[object.ID]objState), deferred: make(map[object.ID]move)}
}

// add adds id, checks that its state is zeroed but for its ID and that it
// holds no deferred move, and then writes the next marker into every other
// field, so a state that moves or is overwritten shows.
func (m *tableModel) add(t testing.TB, id object.ID) {
	t.Helper()
	st := m.tab.add(id)
	if *st != (objState{id: uint32(id)}) {
		t.Fatalf("add(%d) = %+v, want a state zeroed but for its ID", id, *st)
	}
	if _, ok := m.tab.deferral(id); ok {
		t.Fatalf("add(%d): the new state holds a deferred move", id)
	}
	m.marker++
	*st = objState{id: uint32(id), aff: m.marker, row: -m.marker, total: 2 * m.marker, acquiredAt: time.Duration(m.marker)}
	m.sts[id] = *st
}

// remove removes id, which must report whether id was present; id's
// deferred move goes with it.
func (m *tableModel) remove(t testing.TB, id object.ID) {
	t.Helper()
	_, have := m.sts[id]
	if m.tab.remove(id) != have {
		t.Fatalf("remove(%d) = %v, want %v", id, !have, have)
	}
	delete(m.sts, id)
	delete(m.deferred, id)
}

// deferMove defers a move of the hosted id under token, superseding the
// one it held.
func (m *tableModel) deferMove(id object.ID, token uint64) {
	mv := move{id: id, to: topology.NodeID(token % 53), method: Method(1 + token%2), kind: GeoMove, token: token}
	m.tab.deferMove(mv)
	m.deferred[id] = mv
}

// check compares every view of the table with the model over the ID range
// [0, universe): the states' IDs are strictly ascending and name the
// model's IDs, get(id) is the state in sts carrying id and reads its
// marker, and no other ID reads present; the bitmap holds len(sts) bits
// and rank[w] counts the hosted IDs below 64·w; the deferred moves are
// strictly ascending by ID, each the model's for a hosted ID.
func (m *tableModel) check(t testing.TB, universe int) {
	t.Helper()
	tab := &m.tab
	want := make([]object.ID, 0, len(m.sts))
	for id := range m.sts {
		want = append(want, id)
	}
	slices.Sort(want)
	if ids := tableIDs(tab); !slices.Equal(ids, want) {
		t.Fatalf("ids = %v, want %v", ids, want)
	}
	for i := range tab.sts {
		st := &tab.sts[i]
		if i > 0 && tab.sts[i-1].id >= st.id {
			t.Fatalf("sts[%d].id = %d after %d: not strictly ascending", i, st.id, tab.sts[i-1].id)
		}
		if got := tab.get(object.ID(st.id)); got != st {
			t.Fatalf("get(%d) = %p, want sts[%d] at %p", st.id, got, i, st)
		}
	}
	for i := 0; i < universe; i++ {
		id := object.ID(i)
		got := tab.get(id)
		want, have := m.sts[id]
		switch {
		case have != (got != nil):
			t.Fatalf("get(%d) = %p, want present %v", i, got, have)
		case have && *got != want:
			t.Fatalf("get(%d) = %+v, want %+v", i, *got, want)
		}
	}
	if len(tab.rank) != len(tab.bits) {
		t.Fatalf("%d rank words for %d bitmap words", len(tab.rank), len(tab.bits))
	}
	below := 0
	for w, word := range tab.bits {
		if int(tab.rank[w]) != below {
			t.Fatalf("rank[%d] = %d, want %d hosted IDs below %d", w, tab.rank[w], below, 64*w)
		}
		below += bits.OnesCount64(word)
	}
	if below != len(tab.sts) {
		t.Fatalf("bitmap holds %d IDs, want %d", below, len(tab.sts))
	}
	if len(tab.deferred) != len(m.deferred) {
		t.Fatalf("%d deferred moves, want %d", len(tab.deferred), len(m.deferred))
	}
	for i, mv := range tab.deferred {
		if i > 0 && tab.deferred[i-1].id >= mv.id {
			t.Fatalf("deferred[%d] on %d after %d: not strictly ascending", i, mv.id, tab.deferred[i-1].id)
		}
		if mv != m.deferred[mv.id] || !tab.bits.Has(mv.id) {
			t.Fatalf("deferred[%d] = %+v, want %+v on a hosted ID", i, mv, m.deferred[mv.id])
		}
	}
}

// TestObjTableAgainstMap drives the table and the model with the same
// seeded add/remove/defer sequence, checking every view after every
// operation. The population swings between empty and a few hundred over
// ten bitmap words, so every add and remove moves the rank of the words
// above it and shifts the states above it; deferrals are set, superseded,
// and taken by the removes, and a removed ID added back must hold none.
func TestObjTableAgainstMap(t *testing.T) {
	const universe = 600
	for seed := int64(1); seed <= 4; seed++ {
		rng := workload.Stream(seed, 0)
		m := newTableModel()
		superseded, dropped := 0, 0
		for op := 0; op < 6000; op++ {
			id := object.ID(rng.Intn(universe))
			// Fill for 2000 operations, drain for 1000, twice over.
			fill := op%3000 < 2000
			_, have := m.sts[id]
			_, deferred := m.deferred[id]
			switch r := rng.Intn(4); {
			case have && r == 0:
				if deferred {
					superseded++
				}
				m.deferMove(id, uint64(op))
			case !have && (fill || r == 1):
				m.add(t, id)
			case have && (!fill || r == 1):
				if deferred {
					dropped++
				}
				m.remove(t, id)
			case !have:
				m.remove(t, id)
			}
			m.check(t, universe)
		}
		if superseded == 0 || dropped == 0 {
			t.Fatalf("seed %d: %d deferrals superseded, %d removed with their object; want both", seed, superseded, dropped)
		}
	}
}

// FuzzObjTable is TestObjTableAgainstMap over fuzzed programs: each pair
// of bytes adds, defers a move of, removes or looks up one of 256 IDs
// (four bitmap words, so ranks move across words), or walks the table,
// dropping the objects an ID residue selects and adding the ID below each
// as it goes, which must visit exactly the objects held before the walk;
// the table is held against the model after every step.
func FuzzObjTable(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 63, 0, 64, 0, 127, 0, 128, 0, 255, 128, 64, 192, 0, 64, 128})
	f.Add([]byte{0, 200, 0, 5, 128, 200, 0, 69, 64, 5, 192, 0, 128, 5, 0, 200})
	f.Add([]byte{0, 3, 0, 4, 0, 5, 0, 9, 64, 4, 65, 4, 64, 5, 197, 1, 0, 4, 192, 0, 128, 3, 0, 3})
	f.Add([]byte{0, 3, 0, 64, 0, 130, 0, 7, 64, 7, 205, 0, 0, 10, 200, 0, 128, 63, 200, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		m := newTableModel()
		for step := 0; step+1 < len(prog); step += 2 {
			op, id := prog[step], object.ID(prog[step+1])
			_, have := m.sts[id]
			switch op >> 6 {
			case 0: // add, or look up a present ID
				if !have {
					m.add(t, id)
				}
			case 1: // defer a move of a present ID, or add it
				if have {
					m.deferMove(id, uint64(step))
				} else {
					m.add(t, id)
				}
			case 2:
				m.remove(t, id)
			case 3: // walk; with bit 2 set, drop each object whose ID is op's low bits mod 4; with bit 3, add the ID below each
				want := make([]object.ID, 0, len(m.sts))
				for w := range m.sts {
					want = append(want, w)
				}
				slices.Sort(want)
				var walked []object.ID
				for at := 0; at < len(m.tab.sts); at = m.tab.next(at, id) {
					id = object.ID(m.tab.sts[at].id)
					walked = append(walked, id)
					if op&4 != 0 && int(id)%4 == int(op&3) {
						m.remove(t, id)
					}
					if _, had := m.sts[id-1]; op&8 != 0 && id > 0 && !had {
						m.add(t, id-1)
					}
				}
				if !slices.Equal(walked, want) {
					t.Fatalf("step %d: walk = %v, want %v", step, walked, want)
				}
			}
			m.check(t, 320)
		}
	})
}

// TestObjTableWalkSurvivesDrops: a walk that drops two adjacent objects
// still visits the second, and one that adds an object below the one in
// hand neither visits it nor the one in hand again. After a remove the
// next state sits at the address of the removed one, and after an add
// below at the address after it, so a walk that advanced by address would
// step over one or see one twice; next compares IDs.
func TestObjTableWalkSurvivesDrops(t *testing.T) {
	m := newTableModel()
	for _, id := range []object.ID{2, 3, 5, 8, 13} {
		m.add(t, id)
	}
	m.deferMove(5, 1)
	var walked []object.ID
	var id object.ID
	for at := 0; at < len(m.tab.sts); at = m.tab.next(at, id) {
		id = object.ID(m.tab.sts[at].id)
		walked = append(walked, id)
		switch id {
		case 3, 5:
			m.remove(t, id)
		case 8:
			m.add(t, 1)
			m.add(t, 70) // past the bitmap's words so far
		}
	}
	want := []object.ID{2, 3, 5, 8, 13, 70}
	if !slices.Equal(walked, want) {
		t.Fatalf("walk = %v, want %v", walked, want)
	}
	m.check(t, 128)
	if got := m.tab.next(len(m.tab.sts), 200); got != len(m.tab.sts) {
		t.Fatalf("next past the end for 200 = %d in a table of %d", got, len(m.tab.sts))
	}
}

// outside are IDs no table can hold: negative, or past any bitmap here.
var outside = []object.ID{-1, -64, math.MinInt, 1 << 20, math.MaxInt}

// TestObjTableWordEdges adds and removes the IDs on either side of the
// first word boundaries, in an order that puts each one below IDs already
// hosted, so every add and remove moves the ranks of the words above; and
// IDs outside the bitmap read absent, never panic, and remove nothing,
// in the table and through Host.Has and Host.Affinity.
func TestObjTableWordEdges(t *testing.T) {
	m := newTableModel()
	tab := &m.tab
	check := func(when string) {
		t.Helper()
		m.check(t, 200)
		for _, id := range outside {
			if tab.get(id) != nil || tab.bits.Has(id) || tab.remove(id) {
				t.Fatalf("%s: ID %d outside the bitmap reads present", when, id)
			}
		}
	}
	check("empty")
	for _, id := range []object.ID{128, 127, 64, 63, 0} {
		m.add(t, id)
		check(fmt.Sprintf("after add(%d)", id))
	}
	if want := []int32{0, 2, 4}; !slices.Equal(tab.rank, want) {
		t.Fatalf("rank = %v, want %v", tab.rank, want)
	}
	for _, id := range []object.ID{64, 0, 128, 127, 63} {
		m.remove(t, id)
		check(fmt.Sprintf("after remove(%d)", id))
	}
	if len(tab.sts) != 0 || len(tab.bits) != 3 {
		t.Fatalf("%d IDs in %d words, want none in the 3 words the table grew to", len(tab.sts), len(tab.bits))
	}
	c := newCluster(t, topology.Line(3), DefaultParams())
	c.seed(5, 0)
	for _, id := range outside {
		if h := c.hosts[0]; h.Has(id) || h.Affinity(id) != 0 {
			t.Fatalf("host: ID %d outside the bitmap reads present", id)
		}
	}
}

// TestObjectsIsASnapshot: EachObject reports every hosted object once, in
// ascending order, with its affinity; and the placement pass, which walks
// the live list while it drops objects, decides each object exactly once
// while it drops every one of them.
func TestObjectsIsASnapshot(t *testing.T) {
	c := newCluster(t, topology.Line(3), DefaultParams())
	const n = 40
	for i := 0; i < n; i++ {
		c.seed(object.ID(i), 0)
		c.seed(object.ID(i), 1) // a second copy, so the redirector approves the drop
	}
	h := c.hosts[0]
	h.objs.get(7).aff = 2 // only for the walk below
	var walked []object.ID
	h.EachObject(func(id object.ID, aff int) {
		if want := h.Affinity(id); aff != want {
			t.Fatalf("EachObject: object %d affinity %d, want %d", id, aff, want)
		}
		walked = append(walked, id)
	})
	if !slices.Equal(walked, hostedIDs(h)) || len(walked) != n {
		t.Fatalf("EachObject walked %v", walked)
	}
	h.objs.get(7).aff = 1
	h.DecidePlacement(100 * time.Second) // nobody asked: every object is cold
	visited := make(map[object.ID]int)
	for _, e := range c.recorded(EventDrop) {
		visited[object.ID(e.Object)]++
	}
	for i := 0; i < n; i++ {
		if visited[object.ID(i)] != 1 {
			t.Fatalf("object %d dropped %d times, want once", i, visited[object.ID(i)])
		}
	}
	if h.NumObjects() != 0 {
		t.Fatalf("%d objects left, want 0", h.NumObjects())
	}
}

// TestTotalTracksOwnCount: after any request sequence an object's Total
// equals its row's count of the own host, an object nobody asked for holds
// no row, and a placement pass hands every row back.
func TestTotalTracksOwnCount(t *testing.T) {
	rng := workload.Stream(7, 0)
	c := newCluster(t, topology.Ring(9), DefaultParams())
	const n = 12
	for i := 0; i < n; i++ {
		c.seed(object.ID(i), topology.NodeID(i%3))
	}
	const idle = object.ID(n)
	c.seed(idle, 0)
	check := func(when string, wantZero bool) {
		t.Helper()
		for _, h := range c.hosts {
			h.settle() // a white-box read, like every reader inside Host
			for _, id := range hostedIDs(h) {
				st := h.objs.get(id)
				own := int32(0)
				if cnt := h.nodeCounts(st); cnt != nil {
					own = cnt[h.ID]
				}
				if st.total != own {
					t.Fatalf("%s: host %d object %d: Total %d, own count %d", when, h.ID, id, st.total, own)
				}
				if wantZero && (st.total != 0 || st.row != 0) {
					t.Fatalf("%s: host %d object %d: Total %d, row %d, want neither", when, h.ID, id, st.total, st.row)
				}
			}
		}
	}
	requested := 0
	for i := 0; i < 2000; i++ {
		id := object.ID(rng.Intn(n))
		c.hosts[int(id)%3].OnRequest(id, topology.NodeID(rng.Intn(9)))
		requested++
		if i%50 == 0 {
			check("mid-sequence", false)
		}
	}
	check("after requests", false)
	total := 0
	for _, h := range c.hosts {
		for _, st := range h.objs.sts {
			total += int(st.total)
		}
	}
	if total != requested {
		t.Fatalf("totals sum to %d, want %d", total, requested)
	}
	if st := c.hosts[0].objs.get(idle); st.row != 0 {
		t.Fatalf("idle object holds row %d before any request", st.row)
	}
	for _, h := range c.hosts {
		h.DecidePlacement(100 * time.Second)
	}
	check("after a pass", true)
}

// benchHost returns a UUNET cluster, one of its hosts holding objects sole
// replicas, a function that requests them, and the time between two
// passes. A pass over it then decides everything and moves nothing — the
// steady state — because every requested object sits between the deletion
// and replication thresholds and no candidate reaches MIGR_RATIO.
//
// Host 0 requests every tenth object ten times: half locally, the rest
// from five gateways, so each has a handful of candidates. With
// allGateways, the redirector's node requests every object once from each
// of the 53 gateways, passes ten times further apart: every object has
// some 52 candidates, the shape of a sim-zipf pass.
func benchHost(tb testing.TB, objects int, allGateways bool) (*cluster, *Host, func(), time.Duration) {
	c := newCluster(tb, topology.UUNET(), DefaultParams())
	h := c.hosts[0]
	if allGateways {
		h = c.hosts[c.routes.MinAvgDistanceNode()]
	}
	for i := 0; i < objects; i++ {
		c.seed(object.ID(i), h.ID)
	}
	if allGateways {
		return c, h, func() {
			for i := 0; i < objects; i++ {
				for g := range c.hosts {
					h.OnRequest(object.ID(i), topology.NodeID(g))
				}
			}
		}, 1000 * time.Second
	}
	return c, h, func() {
		for i := 0; i < objects; i += 10 {
			for r := 0; r < 5; r++ {
				h.OnRequest(object.ID(i), 0)
				h.OnRequest(object.ID(i), topology.NodeID(10*(r+1)))
			}
		}
	}, 100 * time.Second
}

func BenchmarkDecidePlacement(b *testing.B) {
	for _, allGateways := range []bool{false, true} {
		name := "gateways=5"
		if allGateways {
			name = "gateways=53"
		}
		b.Run(name, func(b *testing.B) {
			_, h, request, step := benchHost(b, 1000, allGateways)
			request()
			h.DecidePlacement(step) // first pass sizes the reused buffers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				request()
				b.StartTimer()
				before := h.Stats
				h.DecidePlacement(time.Duration(i+2) * step)
				if h.Stats.fig3Moves() != before.fig3Moves() {
					b.Fatalf("pass %d moved objects: %+v", i, h.Stats)
				}
			}
		})
	}
}

// TestPlacementPassAllocFree holds BenchmarkDecidePlacement's 0 allocs/op as
// a test: a steady-state pass over a thousand objects allocates nothing;
// neither does a pass that drops an object followed by a CreateObj that
// brings it back into the dropped object's slot, and a request
// for it, which takes it a count row; nor, after one lap, do windows that
// each count a different tenth of the objects; nor, once the kept blocks
// exist, does a second identical window of inline and spilled rows.
func TestPlacementPassAllocFree(t *testing.T) {
	t.Run("drop-then-re-add", func(t *testing.T) {
		c, h, request, step := benchHost(t, 1000, false)
		const cold = object.ID(1000) // nobody asks for it; a second copy lets it go
		other := c.hosts[(int(h.ID)+1)%len(c.hosts)]
		c.seed(cold, h.ID)
		c.seed(cold, other.ID)
		now := step
		request()
		h.DecidePlacement(now) // sizes the reused buffers and drops cold once
		var st *objState
		dropAndReAdd := func() {
			if !h.CreateObj(now, CreateObjRequest{Method: Replicate, Object: cold, SrcAff: 1, From: other.ID}) {
				t.Fatal("the idle host refused the object back")
			}
			if st != nil && h.objs.get(cold) != st {
				t.Fatal("the re-add did not land in the dropped object's slot")
			}
			st = h.objs.get(cold)
			h.OnMeasurementIntervalClose(now) // retires the acceptance's upper estimate
			c.events, c.copies = c.events[:0], c.copies[:0]
			request()
			h.OnRequest(cold, h.ID) // still cold: one request in a window
			now += step
			before := h.Stats
			h.DecidePlacement(now)
			if d := h.Stats.fig3Moves() - before.fig3Moves(); d != 1 || h.Stats.Drops != before.Drops+1 || h.Has(cold) {
				t.Fatalf("pass at %v: %d moves, want the one drop: %+v", now, d, h.Stats)
			}
		}
		dropAndReAdd()
		if allocs := testing.AllocsPerRun(5, dropAndReAdd); allocs != 0 {
			t.Fatalf("a pass that drops an object and its re-add allocate %v times, want 0", allocs)
		}
	})
	t.Run("rolling", func(t *testing.T) {
		_, h, _, step := benchHost(t, 1000, false)
		now, lap := time.Duration(0), 0
		window := func() {
			for i := lap % 10; i < 1000; i += 10 { // benchHost's requests, a tenth further on
				for r := 0; r < 5; r++ {
					h.OnRequest(object.ID(i), 0)
					h.OnRequest(object.ID(i), topology.NodeID(10*(r+1)))
				}
			}
			lap++
			now += step
			before := h.Stats
			h.DecidePlacement(now)
			if h.Stats.fig3Moves() != before.fig3Moves() {
				t.Fatalf("pass at %v moved objects: %+v", now, h.Stats)
			}
		}
		for lap < 10 {
			window()
		}
		if allocs := testing.AllocsPerRun(10, window); allocs != 0 {
			t.Fatalf("a lap of windows over different tenths allocates %v times a pass, want 0", allocs)
		}
	})
	t.Run("inline-and-spilled", func(t *testing.T) {
		_, h, _, step := benchHost(t, 1000, true)
		now := time.Duration(0)
		window := func() {
			for i := 0; i < 1000; i++ {
				gateways := 53 // every gateway: the row spills
				if i%2 == 0 {
					gateways = 5 // five gateways fit in place
				}
				for g := 0; g < gateways; g++ {
					h.OnRequest(object.ID(i), topology.NodeID(g*53/gateways))
				}
			}
			h.settle()
			if st0, st1 := h.objs.get(0), h.objs.get(1); st0.row <= 0 || st1.row >= 0 {
				t.Fatalf("rows %d and %d, want a tally row and a spilled one", st0.row, st1.row)
			}
			now += step
			before := h.Stats
			h.DecidePlacement(now)
			if h.Stats.fig3Moves() != before.fig3Moves() {
				t.Fatalf("pass at %v moved objects: %+v", now, h.Stats)
			}
		}
		window() // the kept blocks now hold a window's rows
		if allocs := testing.AllocsPerRun(5, window); allocs != 0 {
			t.Fatalf("a second identical window of inline and spilled rows allocates %v times, want 0", allocs)
		}

	})
	for _, allGateways := range []bool{false, true} {
		_, h, request, step := benchHost(t, 1000, allGateways)
		now := step
		request()
		h.DecidePlacement(now) // first pass sizes the reused buffers
		allocs := testing.AllocsPerRun(5, func() {
			request()
			now += step
			before := h.Stats
			h.DecidePlacement(now)
			if h.Stats.fig3Moves() != before.fig3Moves() {
				t.Fatalf("pass at %v moved objects: %+v", now, h.Stats)
			}
		})
		if allocs != 0 {
			t.Fatalf("a steady-state placement pass (all gateways %v) allocates %v times, want 0", allGateways, allocs)
		}
	}
}

// TestRedirectorSmallSetsAllocFree is the redirector's side of the
// placement pass's guard: a replica set that never holds more than
// inlineReplicas records lives in its entry, so notifications, affinity
// changes, choices, drops, record removals and purges that empty it
// allocate nothing once PurgeHost's buffer is sized.
func TestRedirectorSmallSetsAllocFree(t *testing.T) {
	routes := routing.New(topology.UUNET())
	r, err := NewRedirector(0, routes, PolicyPaper, 2, testObjects, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	var emptied []object.ID
	cycle := func() {
		for id := object.ID(0); id < 8; id++ {
			for k := 0; k < inlineReplicas; k++ {
				r.NotifyReplicaChange(id, topology.NodeID(1+k*7), 1)
			}
			r.NotifyReplicaChange(id, 1, 2)
			if _, err := r.ChooseReplica(topology.NodeID(id), id); err != nil {
				t.Fatal(err)
			}
			if !r.RequestDrop(id, 8) || !r.RemoveRecord(id, 15) {
				t.Fatal("a recorded replica was not removed")
			}
		}
		emptied = r.PurgeHost(22, emptied)
		if emptied = r.PurgeHost(1, emptied); len(emptied) != 8 {
			t.Fatalf("purges emptied %v, want objects 0-7", emptied)
		}
		if _, err := r.ChooseReplica(0, 0); !errors.Is(err, ErrUnknownObject) {
			t.Fatalf("choice on an emptied set: %v, want ErrUnknownObject", err)
		}
	}
	cycle() // sizes emptied
	if a := testing.AllocsPerRun(50, cycle); a != 0 {
		t.Fatalf("a cycle on sets of up to %d replicas allocates %v times", inlineReplicas, a)
	}
	for id := object.ID(0); id < 8; id++ {
		if r.entries[id].big != nil {
			t.Fatalf("object %d spilled with at most %d replicas", id, inlineReplicas)
		}
	}
}

// BenchmarkHostOnRequest measures the request accounting of a fleet whose
// state does not fit the cache: sixteen hosts of a thousand objects each,
// every one requested in turn within one window from gateway after
// gateway, so each object holds a row of its host's count store, spilled
// once it has seen rowTallies gateways (a hundred IDs of one host never
// showed the misses that dominate a real run). OnRequest only logs; every
// reqLogCap-th call runs settle, so the charge is amortised into ns/op
// here, and in the ledger's protocol.onrequest_ns, with no settle call in
// the loop.
func BenchmarkHostOnRequest(b *testing.B) {
	const hosts, objects = 16, 1000
	c := newCluster(b, topology.UUNET(), DefaultParams())
	var err error
	if c.red, err = NewRedirector(0, c.routes, PolicyPaper, 2, hosts*objects, 0, 1); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < hosts*objects; i++ {
		c.seed(object.ID(i), topology.NodeID(i%hosts))
	}
	request := func(i int) {
		// 617 is coprime to both: i walks every (host, object) pair, scattered.
		id := object.ID(i * 617 % (hosts * objects))
		c.hosts[int(id)%hosts].OnRequest(id, topology.NodeID(i%53))
	}
	for i := 0; i < hosts*objects; i++ {
		request(i) // gives every object its row
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		request(i)
	}
}

// BenchmarkObjTable sizes the by-ID paths of one host's table at sim-churn
// scale: some 700 of 20,000 objects hosted, scattered over the universe.
// get looks up hosted IDs (settle, CreateObj, load reports), has probes the
// whole universe (the anti-entropy sweep), and add+remove drops a hosted
// object and takes it back, which shifts the states above it and
// allocates nothing: 0 allocs/op.
func BenchmarkObjTable(b *testing.B) {
	const universe, hosted = 20000, 700
	var tab objTable
	ids := make([]object.ID, hosted)
	for i := range ids {
		ids[i] = object.ID(i * 57 % universe) // 57 is coprime to 20,000: distinct IDs
		tab.add(ids[i])
	}
	b.Run("get", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if tab.get(ids[i%hosted]) == nil {
				b.Fatal("a hosted ID is missing")
			}
		}
	})
	b.Run("has", func(b *testing.B) {
		b.ReportAllocs()
		n := 0
		for i := 0; i < b.N; i++ {
			if tab.bits.Has(object.ID(i * 617 % universe)) {
				n++
			}
		}
		if b.N >= universe && n == 0 {
			b.Fatal("has found no hosted ID")
		}
	})
	b.Run("add+remove", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			id := ids[i*7%hosted]
			tab.remove(id)
			tab.add(id)
		}
	})
}
