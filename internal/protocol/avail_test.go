package protocol

import (
	"testing"
	"time"

	"radar/internal/object"
	"radar/internal/topology"
)

// touch registers a request from each given node so it becomes a
// placement candidate for the object on host h.
func touch(c *cluster, h topology.NodeID, id object.ID, nodes ...topology.NodeID) {
	for _, n := range nodes {
		c.hosts[h].OnRequest(id, n)
	}
}

// TestOrderCandidatesZeroWeightIsLegacy: with AvailabilityWeight zero the
// ordering is exactly the paper's farthest-first candidatesByDistanceDesc
// — same nodes, same order — and makes no redirector lookups.
func TestOrderCandidatesZeroWeightIsLegacy(t *testing.T) {
	c := newCluster(t, topology.Line(8), DefaultParams())
	c.seed(obj, 0)
	touch(c, 0, obj, 1, 3, 5, 7)
	h := c.hosts[0]
	st := h.objs.get(obj)
	legacy := append([]topology.NodeID(nil), h.candidatesByDistanceDesc(st)...)
	for _, method := range []Method{Migrate, Replicate} {
		got := h.orderCandidates(obj, st, method)
		if len(got) != len(legacy) {
			t.Fatalf("%v: ordered %d candidates, legacy %d", method, len(got), len(legacy))
		}
		for i := range got {
			if got[i] != legacy[i] {
				t.Errorf("%v: candidate[%d] = %d, legacy %d", method, i, got[i], legacy[i])
			}
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
			got := h.orderCandidates(obj, st, tc.method)
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
			got := c.hosts[2].CreateObj(50*time.Second, tc.method, obj, 0.1, 1, 0)
			if got != tc.accept {
				t.Errorf("CreateObj(%v, load %.0f, w %.1f) = %v, want %v",
					tc.method, tc.load, tc.w, got, tc.accept)
			}
		})
	}
}

// TestAcquisitionHalted mirrors the CreateObj halt guard: after an
// acceptance keeps the upper estimate active past EstimateHaltAfter the
// host reports halted, and the guard clears once a clean interval passes.
func TestAcquisitionHalted(t *testing.T) {
	params := DefaultParams()
	c := newCluster(t, topology.Line(3), params)
	c.seed(obj, 0)
	if c.hosts[2].AcquisitionHalted(10 * time.Second) {
		t.Fatal("fresh host reports acquisition halt")
	}
	if !c.hosts[2].CreateObj(10*time.Second, Replicate, obj, 0.1, 1, 0) {
		t.Fatal("idle host refused a replicate")
	}
	if !c.hosts[2].AcquisitionHalted(10*time.Second + params.EstimateHaltAfter + time.Second) {
		t.Error("host not halted while the upper estimate is still active past the guard")
	}
}
