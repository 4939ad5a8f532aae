package protocol

import (
	"cmp"
	"fmt"
	"slices"
	"testing"
	"time"

	"radar/internal/object"
	"radar/internal/topology"
	"radar/internal/workload"
)

// touch registers a request from each given node so it becomes a
// placement candidate for the object on host h.
func touch(c *cluster, h topology.NodeID, id object.ID, nodes ...topology.NodeID) {
	for _, n := range nodes {
		c.hosts[h].OnRequest(id, n)
	}
}

// TestOrderCandidatesZeroWeightIsLegacy: with AvailabilityWeight zero the
// ordering is exactly the paper's farthest first, for both methods.
func TestOrderCandidatesZeroWeightIsLegacy(t *testing.T) {
	c := newCluster(t, topology.Line(8), DefaultParams())
	c.seed(obj, 0)
	touch(c, 0, obj, 1, 3, 5, 7)
	h := c.hosts[0]
	h.settle()
	st := h.objs.get(obj)
	farthestFirst := []topology.NodeID{7, 6, 5, 4, 3, 2, 1}
	for _, method := range []Method{Migrate, Replicate} {
		if got := h.orderCandidates(obj, st, method, 0); !slices.Equal(got, farthestFirst) {
			t.Errorf("%v: order %v, want %v", method, got, farthestFirst)
		}
	}
}

// TestOrderCandidatesFloorSafety: when the recorded replica set is at the
// floor, a migration onto a host that already holds a copy (which would
// merge two replicas into one) is demoted behind every floor-safe
// candidate — never chosen while a feasible alternative exists.
func TestOrderCandidatesFloorSafety(t *testing.T) {
	for _, tc := range []struct {
		name     string
		floor    int
		replicas []topology.NodeID // replica hosts besides the deciding host 0
		method   Method
		unsafe   []topology.NodeID // candidates that must sort last
	}{
		{name: "migrate-at-floor", floor: 2, replicas: []topology.NodeID{7}, method: Migrate,
			unsafe: []topology.NodeID{7}},
		{name: "replicate-never-unsafe", floor: 2, replicas: []topology.NodeID{7}, method: Replicate,
			unsafe: nil},
		{name: "above-floor-safe", floor: 2, replicas: []topology.NodeID{5, 7}, method: Migrate,
			unsafe: nil}, // 3 recorded copies > floor: merging one is allowed
		{name: "no-floor-all-safe", floor: 0, replicas: []topology.NodeID{7}, method: Migrate,
			unsafe: nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			params := DefaultParams()
			params.ReplicaFloor = tc.floor
			params.AvailabilityWeight = 0.5
			c := newCluster(t, topology.Line(8), params)
			c.seed(obj, 0)
			for _, r := range tc.replicas {
				c.seed(obj, r)
			}
			touch(c, 0, obj, 1, 3, 5, 7)
			h := c.hosts[0]
			st := h.objs.get(obj)
			got := h.orderCandidates(obj, st, tc.method, 0)
			unsafe := map[topology.NodeID]bool{}
			for _, u := range tc.unsafe {
				unsafe[u] = true
			}
			// Every unsafe candidate must appear strictly after every safe one.
			lastSafe, firstUnsafe := -1, len(got)
			for i, p := range got {
				if unsafe[p] {
					if i < firstUnsafe {
						firstUnsafe = i
					}
				} else if i > lastSafe {
					lastSafe = i
				}
			}
			if firstUnsafe < lastSafe {
				t.Errorf("unsafe candidate ordered at %d before safe candidate at %d: order %v",
					firstUnsafe, lastSafe, got)
			}
		})
	}
}

// fullOrder is the ordering without the ratio prefilter, kept as the
// oracle: every counted node farthest first, re-sorted by availability
// score over all of them, and only then Fig. 3's ratio test, as tryGeo
// once applied it in its loop.
func fullOrder(h *Host, id object.ID, st *objState, method Method, ratio float64) []topology.NodeID {
	var cands []topology.NodeID
	cnt := slices.Clone(h.nodeCounts(st))
	for p, c := range cnt {
		if c > 0 && topology.NodeID(p) != h.ID {
			cands = append(cands, topology.NodeID(p))
		}
	}
	if h.params.NeighborOnly {
		cands = slices.DeleteFunc(cands, func(p topology.NodeID) bool { return h.env.Routes.Distance(h.ID, p) != 1 })
	}
	h.env.Routes.SortByDistanceDesc(h.ID, cands)
	w, diam := h.params.AvailabilityWeight, float64(h.env.Routes.Diameter())
	if w > 0 && len(cands) >= 2 && diam > 0 {
		replicas := h.env.RedirectorFor(id).ReplicaHosts(id, nil)
		scored := make([]availCand, len(cands))
		for i, p := range cands {
			scored[i] = availCand{node: p, score: h.availScore(p, replicas, method, w, diam), safe: h.floorSafe(p, replicas, method)}
		}
		slices.SortStableFunc(scored, func(a, b availCand) int {
			if a.safe != b.safe {
				if a.safe {
					return -1
				}
				return 1
			}
			return cmp.Compare(b.score, a.score)
		})
		for i := range scored {
			cands[i] = scored[i].node
		}
	}
	return slices.DeleteFunc(cands, func(p topology.NodeID) bool {
		return float64(cnt[p])/float64(st.total) <= ratio
	})
}

// checkOrderCase draws one placement state for id on h from next — a
// replica that may join id's set, each gateway's requests (more than
// rowTallies gateways spill the row), a method and a ratio (MIGR_RATIO,
// REPL_RATIO or any) — and checks that orderCandidates orders it as
// fullOrder does.
func checkOrderCase(t *testing.T, c *cluster, h *Host, id object.ID, next func() int) {
	t.Helper()
	n := len(c.hosts)
	if next()%4 == 0 {
		c.red.NotifyReplicaChange(id, topology.NodeID(next()%n), 1)
	}
	sts := []objState{{aff: 1}}
	st := &sts[0]
	h.cnts.take(st)
	defer h.cnts.reset(sts)
	for g := 0; g < n || st.total == 0; g++ {
		if next()%3 == 0 {
			for k := 1 + next()%32; k > 0; k-- {
				h.cnts.charge(st, topology.NodeID(g%n))
				st.total++
			}
		}
	}
	cnt := slices.Clone(h.nodeCounts(st))
	method := []Method{Migrate, Replicate}[next()%2]
	ratio := []float64{migrRatio, replRatio, float64(next()) / 256}[next()%3]
	got := slices.Clone(h.orderCandidates(id, st, method, ratio))
	if want := fullOrder(h, id, st, method, ratio); !slices.Equal(got, want) {
		t.Fatalf("host %d, %v at ratio %v, w %v, floor %d, neighbor-only %v, replicas %v, counts %v/%d:\norder %v\nwant  %v",
			h.ID, method, ratio, h.params.AvailabilityWeight, h.params.ReplicaFloor, h.params.NeighborOnly,
			c.red.ReplicaHosts(id, nil), cnt, st.total, got, want)
	}
}

// TestOrderCandidatesMatchesFullOrder replays seeded placement states on
// the UUNET backbone under every availability weight, floor and the
// NeighborOnly baseline: ordering only the candidates past the ratio gives
// the order the full candidate list gave after the ratio test.
func TestOrderCandidatesMatchesFullOrder(t *testing.T) {
	c := newCluster(t, topology.UUNET(), DefaultParams())
	id := object.ID(0)
	for _, w := range []float64{0, 0.3, 0.5, 1} {
		for _, floor := range []int{0, 2, 3} {
			for _, neighborOnly := range []bool{false, true} {
				id++
				t.Run(fmt.Sprintf("w=%v,floor=%d,neighbor-only=%v", w, floor, neighborOnly), func(t *testing.T) {
					rng := workload.Stream(int64(id), 0)
					next := func() int { return rng.Intn(256) }
					for i := 0; i < 200; i++ {
						h := c.hosts[rng.Intn(len(c.hosts))]
						h.params.AvailabilityWeight, h.params.ReplicaFloor, h.params.NeighborOnly = w, floor, neighborOnly
						checkOrderCase(t, c, h, id, next)
					}
				})
			}
		}
	}
}

// FuzzOrderCandidates is TestOrderCandidatesMatchesFullOrder over fuzzed
// programs on the UUNET backbone and on stars, rings and lines, whose
// distance ties exercise the node-ID tie-break.
func FuzzOrderCandidates(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		data := make([]byte, 400)
		workload.Stream(seed, 0).Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		topo := topology.UUNET()
		if n := 10 + next()%15; next()%4 != 0 {
			topo = []func(int) *topology.Topology{topology.Star, topology.Ring, topology.Line}[next()%3](n)
		}
		c := newCluster(t, topo, DefaultParams())
		h := c.hosts[next()%len(c.hosts)]
		h.params.AvailabilityWeight = []float64{0, 0.3, 0.5, 1}[next()%4]
		h.params.ReplicaFloor = []int{0, 2, 3}[next()%3]
		h.params.NeighborOnly = next()%4 == 0
		for len(data) > 0 {
			checkOrderCase(t, c, h, obj, next)
		}
	})
}

// TestAvailScoreTable pins the availability score's two terms: a fresh
// candidate outranks an equal-distance candidate that already holds a
// copy (newCopy), and among fresh candidates one far from the existing
// replicas outranks one adjacent to them (spread).
func TestAvailScoreTable(t *testing.T) {
	// Line(9): host 0 decides; replicas besides 0 sit on node 4.
	params := DefaultParams()
	params.AvailabilityWeight = 0.5
	c := newCluster(t, topology.Line(9), params)
	c.seed(obj, 0)
	c.seed(obj, 4)
	h := c.hosts[0]
	replicas := []topology.NodeID{0, 4}
	diam := float64(c.routes.Diameter())
	w := params.AvailabilityWeight
	for _, tc := range []struct {
		name   string
		better topology.NodeID
		worse  topology.NodeID
		method Method
	}{
		// 8 and 4 are both 4+ hops out, but 4 already holds a copy.
		{name: "new-copy-beats-holder", better: 8, worse: 4, method: Replicate},
		// 8 and 5 are fresh; 5 is adjacent to the replica on 4.
		{name: "spread-beats-adjacent", better: 8, worse: 5, method: Replicate},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := h.availScore(tc.better, replicas, tc.method, w, diam)
			ws := h.availScore(tc.worse, replicas, tc.method, w, diam)
			if b <= ws {
				t.Errorf("score(%d) = %.4f not greater than score(%d) = %.4f",
					tc.better, b, tc.worse, ws)
			}
		})
	}
}

// TestRepairAcceptCeiling: the Repair method is accepted against the
// availability-relaxed watermark lw + w·(hw-lw) while plain Replicate
// still refuses above lw; with w = 0 Repair degenerates to the legacy
// Replicate verdict.
func TestRepairAcceptCeiling(t *testing.T) {
	for _, tc := range []struct {
		name   string
		w      float64
		load   float64 // accept-side load of the target (lw=80, hw=90)
		method Method
		accept bool
	}{
		{name: "replicate-below-lw", w: 0.5, load: 79, method: Replicate, accept: true},
		{name: "replicate-above-lw", w: 0.5, load: 84, method: Replicate, accept: false},
		{name: "repair-in-relaxed-band", w: 0.5, load: 84, method: Repair, accept: true},
		{name: "repair-above-relaxed", w: 0.5, load: 86, method: Repair, accept: false},
		{name: "repair-zero-weight-is-legacy", w: 0, load: 84, method: Repair, accept: false},
		{name: "repair-full-weight-to-hw", w: 1, load: 89, method: Repair, accept: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			params := DefaultParams()
			params.AvailabilityWeight = tc.w
			c := newCluster(t, topology.Line(3), params)
			c.seed(obj, 0)
			c.loads[2].total = tc.load
			got := c.hosts[2].CreateObj(50*time.Second, CreateObjRequest{Method: tc.method, Object: obj, UnitLoad: 0.1, SrcAff: 1})
			if got != tc.accept {
				t.Errorf("CreateObj(%v, load %.0f, w %.1f) = %v, want %v",
					tc.method, tc.load, tc.w, got, tc.accept)
			}
		})
	}
}

// TestAcquisitionHalted mirrors the CreateObj halt guard: after an
// acceptance keeps the upper estimate active past estimateHaltAfter the
// host reports halted, and the guard clears once a clean interval passes.
func TestAcquisitionHalted(t *testing.T) {
	if estimateHaltAfter <= 0 {
		t.Fatalf("estimateHaltAfter = %v, want positive (§2.1's 60 s)", estimateHaltAfter)
	}
	params := DefaultParams()
	c := newCluster(t, topology.Line(3), params)
	c.seed(obj, 0)
	if c.hosts[2].AcquisitionHalted(10 * time.Second) {
		t.Fatal("fresh host reports acquisition halt")
	}
	if !c.hosts[2].CreateObj(10*time.Second, CreateObjRequest{Method: Replicate, Object: obj, UnitLoad: 0.1, SrcAff: 1}) {
		t.Fatal("idle host refused a replicate")
	}
	if !c.hosts[2].AcquisitionHalted(10*time.Second + estimateHaltAfter + time.Second) {
		t.Error("host not halted while the upper estimate is still active past the guard")
	}
}
