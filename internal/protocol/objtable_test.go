package protocol

import (
	"slices"
	"testing"
	"time"

	"radar/internal/object"
	"radar/internal/topology"
	"radar/internal/workload"
)

// checkAgainst compares every view of t with the reference map over the
// ID range [0, universe).
func checkAgainst(t *testing.T, tab *objTable, ref map[object.ID]*ObjectState, universe int) {
	t.Helper()
	want := make([]object.ID, 0, len(ref))
	for id := range ref {
		want = append(want, id)
	}
	slices.Sort(want)
	if !slices.Equal(tab.ids, want) {
		t.Fatalf("ids = %v, want %v", tab.ids, want)
	}
	if tab.len() != len(ref) {
		t.Fatalf("len = %d, want %d", tab.len(), len(ref))
	}
	for i := 0; i < universe; i++ {
		if got := tab.get(object.ID(i)); got != ref[object.ID(i)] {
			t.Fatalf("get(%d) = %p, want %p", i, got, ref[object.ID(i)])
		}
	}
	seen := 0
	tab.each(func(st *ObjectState) { seen++ })
	if seen != len(ref) {
		t.Fatalf("each visited %d states, want %d", seen, len(ref))
	}
	if 2*len(ref) > len(tab.slots) {
		t.Fatalf("%d entries in %d slots: more than half full", len(ref), len(tab.slots))
	}
}

// TestObjTableAgainstMap drives the table and a reference map with the
// same seeded put/remove/get sequence. The population swings between empty
// and a few hundred, so the index grows several times and, while it is
// small, probe runs wrap around its last slot constantly.
func TestObjTableAgainstMap(t *testing.T) {
	const universe = 600
	for seed := int64(1); seed <= 4; seed++ {
		rng := workload.Stream(seed, 0)
		var tab objTable
		ref := make(map[object.ID]*ObjectState)
		grew := 0
		for op := 0; op < 6000; op++ {
			id := object.ID(rng.Intn(universe))
			// Fill for 2000 operations, drain for 1000, twice over.
			fill := op%3000 < 2000
			switch _, have := ref[id]; {
			case !have && (fill || rng.Intn(4) == 0):
				st := &ObjectState{Aff: 1}
				slots := len(tab.slots)
				tab.put(id, st)
				ref[id] = st
				if len(tab.slots) != slots {
					grew++
				}
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
			if op%97 == 0 {
				checkAgainst(t, &tab, ref, universe)
			}
		}
		checkAgainst(t, &tab, ref, universe)
		if grew < 5 {
			t.Fatalf("seed %d: index grew %d times, want at least 5", seed, grew)
		}
	}
}

// idsHomedAt returns the first n IDs whose home slot in tab is slot.
func idsHomedAt(tab *objTable, slot, n int) []object.ID {
	var ids []object.ID
	for id := object.ID(0); len(ids) < n; id++ {
		if tab.home(id) == slot {
			ids = append(ids, id)
		}
	}
	return ids
}

// TestObjTableWrapAndBackwardShift pins the two places an open-addressed
// index goes wrong: a probe run that wraps from the last slot to slot 0,
// and a delete that must shift entries back across that wrap — but only
// those that do not pass their own home slot.
func TestObjTableWrapAndBackwardShift(t *testing.T) {
	var tab objTable
	tab.grow() // minObjSlots slots, so four entries fit without growing
	last := len(tab.slots) - 1
	tail := idsHomedAt(&tab, last, 2)
	a, b := tail[0], tail[1]
	c := idsHomedAt(&tab, 0, 1)[0]
	d := idsHomedAt(&tab, 2, 1)[0]
	st := map[object.ID]*ObjectState{a: {Aff: 1}, b: {Aff: 2}, c: {Aff: 3}, d: {Aff: 4}}
	for _, id := range []object.ID{a, b, c, d} {
		tab.put(id, st[id])
	}
	// a sits at home; b wrapped to slot 0, pushing c to slot 1; d is at home.
	for slot, id := range map[int]object.ID{last: a, 0: b, 1: c, 2: d} {
		if got := tab.slots[slot]; got.id != id || got.st != st[id] {
			t.Fatalf("slot %d holds %+v, want ID %d", slot, got, id)
		}
	}
	if !tab.remove(a) {
		t.Fatal("remove(a) = false")
	}
	// b shifts back across the wrap into the last slot, c follows into its
	// home; d is already at home and must stay.
	for slot, id := range map[int]object.ID{last: b, 0: c, 2: d} {
		if got := tab.slots[slot]; got.id != id || got.st != st[id] {
			t.Fatalf("after remove: slot %d holds %+v, want ID %d", slot, got, id)
		}
	}
	if tab.slots[1].st != nil {
		t.Fatalf("after remove: slot 1 holds %+v, want it free", tab.slots[1])
	}
	delete(st, a)
	checkAgainst(t, &tab, st, int(max(a, b, c, d))+1)
}

// TestObjectsIsASnapshot: dropping every object while walking Objects()
// visits each exactly once — the slice does not alias the table's own.
func TestObjectsIsASnapshot(t *testing.T) {
	c := newCluster(t, topology.Line(3), DefaultParams())
	const n = 40
	for i := 0; i < n; i++ {
		c.seed(object.ID(i), 0)
		c.seed(object.ID(i), 1) // a second copy, so the redirector approves the drop
	}
	h := c.hosts[0]
	visited := make(map[object.ID]int)
	for _, id := range h.Objects() {
		visited[id]++
		if got := h.reduceAffinity(0, id, h.objs.get(id)); got != affDropped {
			t.Fatalf("object %d: reduceAffinity = %v, want dropped", id, got)
		}
	}
	for i := 0; i < n; i++ {
		if visited[object.ID(i)] != 1 {
			t.Fatalf("object %d visited %d times, want once", i, visited[object.ID(i)])
		}
	}
	if h.NumObjects() != 0 {
		t.Fatalf("%d objects left, want 0", h.NumObjects())
	}
}

// TestTotalTracksOwnCount: after any request sequence an object's Total
// equals Cnt[own host], an object nobody asked for has allocated no counts,
// and a placement pass zeroes both.
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
			for _, id := range h.Objects() {
				st := h.objs.get(id)
				own := int32(0)
				if st.Cnt != nil {
					own = st.Cnt[h.ID]
				}
				if st.Total != own {
					t.Fatalf("%s: host %d object %d: Total %d, Cnt[self] %d", when, h.ID, id, st.Total, own)
				}
				if wantZero && st.Total != 0 {
					t.Fatalf("%s: host %d object %d: Total %d, want 0", when, h.ID, id, st.Total)
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
		for _, id := range h.Objects() {
			total += int(h.objs.get(id).Total)
		}
	}
	if total != requested {
		t.Fatalf("totals sum to %d, want %d", total, requested)
	}
	if st := c.hosts[0].objs.get(idle); st.Cnt != nil {
		t.Fatalf("idle object allocated %d counts before any request", len(st.Cnt))
	}
	for _, h := range c.hosts {
		h.DecidePlacement(100 * time.Second)
	}
	check("after a pass", true)
}

// benchHost returns host 0 of a UUNET cluster holding objects sole replicas
// and a function that requests every tenth of them ten times: half locally,
// the rest from five gateways, so the object sits between the deletion and
// replication thresholds and no candidate reaches MIGR_RATIO. A pass over
// it then decides everything and moves nothing — the steady state.
func benchHost(tb testing.TB, objects int) (*Host, func()) {
	c := newCluster(tb, topology.UUNET(), DefaultParams())
	for i := 0; i < objects; i++ {
		c.seed(object.ID(i), 0)
	}
	h := c.hosts[0]
	request := func() {
		for i := 0; i < objects; i += 10 {
			for r := 0; r < 5; r++ {
				h.OnRequest(object.ID(i), 0)
				h.OnRequest(object.ID(i), topology.NodeID(10*(r+1)))
			}
		}
	}
	return h, request
}

func BenchmarkDecidePlacement(b *testing.B) {
	h, request := benchHost(b, 1000)
	request()
	h.DecidePlacement(100 * time.Second) // first pass sizes the reused buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		request()
		b.StartTimer()
		sum := h.DecidePlacement(time.Duration(i+2) * 100 * time.Second)
		if sum.moved() {
			b.Fatalf("pass %d moved objects: %+v", i, sum)
		}
	}
}

// TestPlacementPassAllocFree holds BenchmarkDecidePlacement's 0 allocs/op as
// a test: a steady-state pass over a thousand objects allocates nothing.
func TestPlacementPassAllocFree(t *testing.T) {
	h, request := benchHost(t, 1000)
	now := 100 * time.Second
	request()
	h.DecidePlacement(now) // first pass sizes the reused buffers
	allocs := testing.AllocsPerRun(5, func() {
		request()
		now += 100 * time.Second
		if sum := h.DecidePlacement(now); sum.moved() {
			t.Fatalf("pass at %v moved objects: %+v", now, sum)
		}
	})
	if allocs != 0 {
		t.Fatalf("a steady-state placement pass allocates %v times, want 0", allocs)
	}
}

// BenchmarkHostOnRequest measures the request accounting of a fleet whose
// state does not fit the cache: sixteen hosts of a thousand objects each,
// every one requested in turn (some 5 MB of counts; a hundred IDs of one
// host are 27 KB and never showed the misses that dominate a real run).
// OnRequest only logs; every reqLogCap-th call runs settle, so the charge
// is amortised into ns/op here, and in the ledger's protocol.onrequest_ns,
// with no settle call in the loop.
func BenchmarkHostOnRequest(b *testing.B) {
	const hosts, objects = 16, 1000
	c := newCluster(b, topology.UUNET(), DefaultParams())
	for i := 0; i < hosts*objects; i++ {
		c.seed(object.ID(i), topology.NodeID(i%hosts))
	}
	request := func(i int) {
		// 617 is coprime to both: i walks every (host, object) pair, scattered.
		id := object.ID(i * 617 % (hosts * objects))
		c.hosts[int(id)%hosts].OnRequest(id, topology.NodeID(i%53))
	}
	for i := 0; i < hosts*objects; i++ {
		request(i) // allocates the objects' counts
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		request(i)
	}
}
