package protocol

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"testing"
	"time"

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
		ids[i] = st.id
	}
	return ids
}

// checkAgainst compares every view of t with the reference map over the
// ID range [0, universe): the states' IDs are strictly ascending and name
// the reference's IDs, and get(id) is the state carrying id; the bitmap
// holds len(sts) bits and rank[w] counts the hosted IDs below 64·w; every
// free state is zeroed, with no deferred move or count row left on it.
func checkAgainst(t testing.TB, tab *objTable, ref map[object.ID]*ObjectState, universe int) {
	t.Helper()
	want := make([]object.ID, 0, len(ref))
	for id := range ref {
		want = append(want, id)
	}
	slices.Sort(want)
	if ids := tableIDs(tab); !slices.Equal(ids, want) {
		t.Fatalf("ids = %v, want %v", ids, want)
	}
	for i, st := range tab.sts {
		if i > 0 && tab.sts[i-1].id >= st.id {
			t.Fatalf("sts[%d].id = %d after %d: not strictly ascending", i, st.id, tab.sts[i-1].id)
		}
		if st != tab.get(st.id) {
			t.Fatalf("sts[%d] = %p, get(%d) = %p", i, st, st.id, tab.get(st.id))
		}
	}
	for i := 0; i < universe; i++ {
		id := object.ID(i)
		got := tab.get(id)
		if got != ref[id] {
			t.Fatalf("get(%d) = %p, want %p", i, got, ref[id])
		}
		if got != nil && got.id != id {
			t.Fatalf("get(%d).id = %d", i, got.id)
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
	for _, st := range tab.free {
		if *st != (ObjectState{}) {
			t.Fatalf("free state %+v is not zeroed", *st)
		}
	}
}

// addDirty adds id to tab, checks that the state it gets is zeroed but for
// its ID, and then dirties every other field, a deferred move included, so
// a state reused after remove shows whether remove cleared it.
func addDirty(t testing.TB, tab *objTable, id object.ID) *ObjectState {
	t.Helper()
	st := tab.add(id)
	if *st != (ObjectState{id: id}) {
		t.Fatalf("add(%d) = %+v, want a state zeroed but for its ID", id, *st)
	}
	*st = ObjectState{id: id, deferred: &move{id: id, token: 7}, Aff: 3, row: 2, Total: 3, AcquiredAt: 9}
	return st
}

// TestObjTableAgainstMap drives the table and a reference map with the
// same seeded add/remove/get sequence, checking the ordered list after
// every operation. The population swings between empty and a few hundred
// over ten bitmap words, so every add and remove moves the rank of the
// words above it; the drains free states that later adds must hand out
// zeroed.
func TestObjTableAgainstMap(t *testing.T) {
	const universe = 600
	for seed := int64(1); seed <= 4; seed++ {
		rng := workload.Stream(seed, 0)
		var tab objTable
		ref := make(map[object.ID]*ObjectState)
		issued := make(map[*ObjectState]bool)
		reused := 0
		for op := 0; op < 6000; op++ {
			id := object.ID(rng.Intn(universe))
			// Fill for 2000 operations, drain for 1000, twice over.
			fill := op%3000 < 2000
			switch _, have := ref[id]; {
			case !have && (fill || rng.Intn(4) == 0):
				st := addDirty(t, &tab, id)
				ref[id] = st
				if issued[st] {
					reused++
				}
				issued[st] = true
			case have && (!fill || rng.Intn(4) == 0):
				if !tab.remove(id) {
					t.Fatalf("seed %d op %d: remove(%d) = false for a present ID", seed, op, id)
				}
				delete(ref, id)
			case !have:
				if tab.remove(id) {
					t.Fatalf("seed %d op %d: remove(%d) = true for an absent ID", seed, op, id)
				}
			}
			if got := tab.get(id); got != ref[id] {
				t.Fatalf("seed %d op %d: get(%d) = %p, want %p", seed, op, id, got, ref[id])
			}
			checkAgainst(t, &tab, ref, universe)
		}
		if reused == 0 {
			t.Fatalf("seed %d: none of %d states was reused: the free list is not used", seed, len(issued))
		}
	}
}

// FuzzObjTable is TestObjTableAgainstMap over fuzzed programs: each pair
// of bytes adds, removes or looks up one of 256 IDs (four bitmap words, so
// ranks move across words), or walks the table, and the table is held
// against a map and a sorted slice after every step, the IDs its states
// carry included.
func FuzzObjTable(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 63, 0, 64, 0, 127, 0, 128, 0, 255, 128, 64, 192, 0, 64, 128})
	f.Add([]byte{0, 200, 0, 5, 128, 200, 0, 69, 64, 5, 192, 0, 128, 5, 0, 200})
	f.Fuzz(func(t *testing.T, prog []byte) {
		var tab objTable
		ref := make(map[object.ID]*ObjectState)
		var sorted []object.ID
		for step := 0; step+1 < len(prog); step += 2 {
			id := object.ID(prog[step+1])
			at, have := slices.BinarySearch(sorted, id)
			switch prog[step] >> 6 {
			case 0, 1: // add, or look up a present ID
				if have {
					if tab.get(id) != ref[id] || !tab.bits.Has(id) {
						t.Fatalf("step %d: get(%d) = %p, want %p", step, id, tab.get(id), ref[id])
					}
					continue
				}
				ref[id] = addDirty(t, &tab, id)
				sorted = slices.Insert(sorted, at, id)
			case 2:
				if tab.remove(id) != have {
					t.Fatalf("step %d: remove(%d) = %v, want %v", step, id, !have, have)
				}
				if have {
					delete(ref, id)
					sorted = slices.Delete(sorted, at, at+1)
				}
			case 3: // walk
				var walked []object.ID
				for _, st := range tab.sts {
					if st != ref[st.id] {
						t.Fatalf("step %d: walk found %p for %d, want %p", step, st, st.id, ref[st.id])
					}
					walked = append(walked, st.id)
				}
				if !slices.Equal(walked, sorted) {
					t.Fatalf("step %d: walk = %v, want %v", step, walked, sorted)
				}
			}
			checkAgainst(t, &tab, ref, 320)
		}
	})
}

// outside are IDs no table can hold: negative, or past any bitmap here.
var outside = []object.ID{-1, -64, math.MinInt, 1 << 20, math.MaxInt}

// TestObjTableWordEdges adds and removes the IDs on either side of the
// first word boundaries, in an order that puts each one below IDs already
// hosted, so every add and remove moves the ranks of the words above; and
// IDs outside the bitmap read absent, never panic, and remove nothing,
// in the table and through Host.Has and Host.Affinity.
func TestObjTableWordEdges(t *testing.T) {
	var tab objTable
	ref := make(map[object.ID]*ObjectState)
	check := func(when string) {
		t.Helper()
		checkAgainst(t, &tab, ref, 200)
		for _, id := range outside {
			if tab.get(id) != nil || tab.bits.Has(id) || tab.remove(id) {
				t.Fatalf("%s: ID %d outside the bitmap reads present", when, id)
			}
		}
	}
	check("empty")
	for _, id := range []object.ID{128, 127, 64, 63, 0} {
		ref[id] = addDirty(t, &tab, id)
		check(fmt.Sprintf("after add(%d)", id))
	}
	if want := []int32{0, 2, 4}; !slices.Equal(tab.rank, want) {
		t.Fatalf("rank = %v, want %v", tab.rank, want)
	}
	for _, id := range []object.ID{64, 0, 128, 127, 63} {
		if !tab.remove(id) {
			t.Fatalf("remove(%d) = false for a present ID", id)
		}
		delete(ref, id)
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
	h.objs.get(7).Aff = 2 // only for the walk below
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
	h.objs.get(7).Aff = 1
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
				if st.Total != own {
					t.Fatalf("%s: host %d object %d: Total %d, own count %d", when, h.ID, id, st.Total, own)
				}
				if wantZero && (st.Total != 0 || st.row != 0) {
					t.Fatalf("%s: host %d object %d: Total %d, row %d, want neither", when, h.ID, id, st.Total, st.row)
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
			total += int(st.Total)
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
// brings it back, which reuses the dropped object's state, and a request
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
		var st *ObjectState
		dropAndReAdd := func() {
			if !h.CreateObj(now, CreateObjRequest{Method: Replicate, Object: cold, SrcAff: 1, From: other.ID}) {
				t.Fatal("the idle host refused the object back")
			}
			if st != nil && h.objs.get(cold) != st {
				t.Fatal("the re-add did not reuse the dropped object's state")
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
// object and takes it back, which reuses its state: 0 allocs/op.
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
