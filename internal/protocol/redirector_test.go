package protocol

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"radar/internal/object"
	"radar/internal/routing"
	"radar/internal/topology"
	"radar/internal/workload"
)

const testObj = object.ID(7)

func newTestRedirector(t *testing.T, topo *topology.Topology, policy Policy) (*Redirector, *routing.Table) {
	t.Helper()
	routes := routing.New(topo)
	r, err := NewRedirector(routes.MinAvgDistanceNode(), routes, policy, 2)
	if err != nil {
		t.Fatalf("NewRedirector: %v", err)
	}
	return r, routes
}

// drive sends k requests for id through r, drawing gateways cyclically
// from pattern, and returns the per-host service counts over the second
// half of the run (the first half is warm-up).
func drive(t *testing.T, r *Redirector, id object.ID, pattern []topology.NodeID, k int) map[topology.NodeID]int {
	t.Helper()
	counts := make(map[topology.NodeID]int)
	for i := 0; i < k; i++ {
		g := pattern[i%len(pattern)]
		h, err := r.ChooseReplica(g, id)
		if err != nil {
			t.Fatalf("ChooseReplica: %v", err)
		}
		if i >= k/2 {
			counts[h]++
		}
	}
	return counts
}

func share(counts map[topology.NodeID]int, h topology.NodeID) float64 {
	total := 0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	return float64(counts[h]) / float64(total)
}

// TestProximityWhenBalanced is the paper's first running example: with one
// replica per cluster and demand split evenly, every request must go to
// its local replica.
func TestProximityWhenBalanced(t *testing.T) {
	topo := topology.TwoClusters(3) // nodes 0-2 cluster A, 3-5 cluster B
	r, _ := newTestRedirector(t, topo, PolicyPaper)
	r.NotifyReplicaChange(testObj, 1, 1) // replica in A
	r.NotifyReplicaChange(testObj, 4, 1) // replica in B
	counts := drive(t, r, testObj, []topology.NodeID{2, 5}, 10000)
	if s := share(counts, 1); s < 0.45 || s > 0.55 {
		t.Errorf("replica A share = %.3f, want ~0.5 (local requests only)", s)
	}
	// Every request from gateway 2 must land on host 1 and from 5 on 4:
	// re-drive and verify per-gateway routing.
	for i := 0; i < 1000; i++ {
		h, err := r.ChooseReplica(2, testObj)
		if err != nil {
			t.Fatal(err)
		}
		if h != 1 {
			t.Fatalf("request from A-side gateway went to %d, want local replica 1", h)
		}
		h, err = r.ChooseReplica(5, testObj)
		if err != nil {
			t.Fatal(err)
		}
		if h != 4 {
			t.Fatalf("request from B-side gateway went to %d, want local replica 4", h)
		}
	}
}

// TestLocalOverloadSplitsOneThird is the paper's second running example:
// all demand local to one replica; the algorithm must shed one third of
// requests to the remote replica.
func TestLocalOverloadSplitsOneThird(t *testing.T) {
	topo := topology.TwoClusters(3)
	r, _ := newTestRedirector(t, topo, PolicyPaper)
	r.NotifyReplicaChange(testObj, 1, 1)
	r.NotifyReplicaChange(testObj, 4, 1)
	counts := drive(t, r, testObj, []topology.NodeID{2}, 30000) // all demand near A
	if s := share(counts, 1); s < 0.63 || s > 0.70 {
		t.Errorf("overloaded local replica share = %.3f, want ~2/3", s)
	}
	if s := share(counts, 4); s < 0.30 || s > 0.37 {
		t.Errorf("remote replica share = %.3f, want ~1/3", s)
	}
}

// TestClosestShareBound verifies the §3 claim: with n replicas and every
// request closest to the same replica, that replica services only
// ~2N/(n+1) of N requests.
func TestClosestShareBound(t *testing.T) {
	for _, n := range []int{2, 3, 5, 9} {
		topo := topology.Line(10)
		r, _ := newTestRedirector(t, topo, PolicyPaper)
		for i := 0; i < n; i++ {
			r.NotifyReplicaChange(testObj, topology.NodeID(i+1), 1)
		}
		counts := drive(t, r, testObj, []topology.NodeID{0}, 60000) // all closest to host 1
		want := 2.0 / float64(n+1)
		if s := share(counts, 1); s < want*0.9 || s > want*1.1 {
			t.Errorf("n=%d: closest replica share = %.4f, want ~%.4f = 2/(n+1)", n, s, want)
		}
	}
}

// TestAffinityNineToOne is the paper's 90/10 example: an American replica
// with affinity 4 and a European replica with affinity 1 under a 9:1
// demand split must send ~1/9 of all requests (including every European
// one) to Europe.
func TestAffinityNineToOne(t *testing.T) {
	topo := topology.TwoClusters(3)
	r, _ := newTestRedirector(t, topo, PolicyPaper)
	r.NotifyReplicaChange(testObj, 1, 4) // America, affinity 4
	r.NotifyReplicaChange(testObj, 4, 1) // Europe, affinity 1
	// Nine American requests then one European, evenly interleaved.
	pattern := []topology.NodeID{2, 2, 2, 2, 2, 2, 2, 2, 2, 5}
	const k = 90000
	euToEU := 0
	counts := make(map[topology.NodeID]int)
	for i := 0; i < k; i++ {
		g := pattern[i%len(pattern)]
		h, err := r.ChooseReplica(g, testObj)
		if err != nil {
			t.Fatal(err)
		}
		if i >= k/2 {
			counts[h]++
			if g == 5 && h == 4 {
				euToEU++
			}
		}
	}
	if s := share(counts, 4); s < 0.09 || s > 0.14 {
		t.Errorf("European share = %.4f, want ~1/9", s)
	}
	if euToEU < k/2/len(pattern)-1 {
		t.Errorf("only %d European requests served locally, want all ~%d", euToEU, k/2/len(pattern))
	}
}

func TestCountsResetOnReplicaChange(t *testing.T) {
	topo := topology.Line(4)
	r, _ := newTestRedirector(t, topo, PolicyPaper)
	r.NotifyReplicaChange(testObj, 0, 1)
	drive(t, r, testObj, []topology.NodeID{0}, 100)
	for _, rep := range r.Replicas(testObj) {
		if rep.Rcnt <= 1 {
			t.Fatalf("expected accumulated counts before change, got %d", rep.Rcnt)
		}
	}
	r.NotifyReplicaChange(testObj, 2, 1)
	for _, rep := range r.Replicas(testObj) {
		if rep.Rcnt != 1 {
			t.Errorf("host %d rcnt = %d after replica-set change, want 1", rep.Host, rep.Rcnt)
		}
	}
	// Affinity-only change also resets.
	drive(t, r, testObj, []topology.NodeID{0}, 100)
	r.NotifyReplicaChange(testObj, 2, 2)
	for _, rep := range r.Replicas(testObj) {
		if rep.Rcnt != 1 {
			t.Errorf("host %d rcnt = %d after affinity change, want 1", rep.Host, rep.Rcnt)
		}
	}
}

func TestRequestDropArbitration(t *testing.T) {
	topo := topology.Line(4)
	r, _ := newTestRedirector(t, topo, PolicyPaper)
	r.NotifyReplicaChange(testObj, 0, 1)
	if r.RequestDrop(testObj, 0) {
		t.Fatal("redirector allowed dropping the last replica")
	}
	r.NotifyReplicaChange(testObj, 2, 1)
	if !r.RequestDrop(testObj, 0) {
		t.Fatal("redirector refused a legal drop")
	}
	if got := r.ReplicaCount(testObj); got != 1 {
		t.Fatalf("replica count after drop = %d, want 1", got)
	}
	if r.RequestDrop(testObj, 2) {
		t.Fatal("redirector allowed dropping the now-last replica")
	}
	if r.RequestDrop(testObj, 3) {
		t.Fatal("redirector approved drop for a host without a replica")
	}
	if r.RequestDrop(object.ID(999), 0) {
		t.Fatal("redirector approved drop for unknown object")
	}
}

func TestChooseReplicaUnknownObject(t *testing.T) {
	topo := topology.Line(3)
	r, _ := newTestRedirector(t, topo, PolicyPaper)
	if _, err := r.ChooseReplica(0, object.ID(5)); !errors.Is(err, ErrUnknownObject) {
		t.Fatalf("err = %v, want ErrUnknownObject", err)
	}
}

func TestRoundRobinPolicy(t *testing.T) {
	topo := topology.Line(6)
	r, _ := newTestRedirector(t, topo, PolicyRoundRobin)
	for _, h := range []topology.NodeID{0, 2, 4} {
		r.NotifyReplicaChange(testObj, h, 1)
	}
	counts := drive(t, r, testObj, []topology.NodeID{0}, 9000)
	for _, h := range []topology.NodeID{0, 2, 4} {
		if s := share(counts, h); s < 0.32 || s > 0.35 {
			t.Errorf("round-robin share of host %d = %.3f, want 1/3", h, s)
		}
	}
}

func TestClosestPolicyIgnoresLoad(t *testing.T) {
	topo := topology.Line(6)
	r, _ := newTestRedirector(t, topo, PolicyClosest)
	r.NotifyReplicaChange(testObj, 1, 1)
	r.NotifyReplicaChange(testObj, 5, 1)
	counts := drive(t, r, testObj, []topology.NodeID{0}, 5000)
	if s := share(counts, 1); s != 1 {
		t.Errorf("closest policy sent %.3f to closest, want all (no load sharing)", s)
	}
}

func TestNewRedirectorValidation(t *testing.T) {
	routes := routing.New(topology.Line(3))
	if _, err := NewRedirector(0, nil, PolicyPaper, 2); err == nil {
		t.Error("nil routes accepted")
	}
	if _, err := NewRedirector(0, routes, PolicyPaper, 1); err == nil {
		t.Error("distribution constant 1 accepted")
	}
	if _, err := NewRedirector(0, routes, Policy(9), 2); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestReplicasReturnsCopy(t *testing.T) {
	topo := topology.Line(3)
	r, _ := newTestRedirector(t, topo, PolicyPaper)
	r.NotifyReplicaChange(testObj, 0, 1)
	reps := r.Replicas(testObj)
	reps[0].Rcnt = 999
	if r.Replicas(testObj)[0].Rcnt == 999 {
		t.Fatal("Replicas exposed internal state")
	}
	if r.Replicas(object.ID(555)) != nil {
		t.Fatal("Replicas for unknown object should be nil")
	}
}

// totalAffinity sums the affinities of id's recorded replicas.
func totalAffinity(r *Redirector, id object.ID) int {
	total := 0
	for _, rep := range r.Replicas(id) {
		total += rep.Aff
	}
	return total
}

func TestTotalAffinityAndObjects(t *testing.T) {
	topo := topology.Line(4)
	r, _ := newTestRedirector(t, topo, PolicyPaper)
	r.NotifyReplicaChange(object.ID(1), 0, 2)
	r.NotifyReplicaChange(object.ID(1), 3, 1)
	r.NotifyReplicaChange(object.ID(2), 2, 1)
	if got := totalAffinity(r, object.ID(1)); got != 3 {
		t.Errorf("total affinity = %d, want 3", got)
	}
	ids := r.Objects()
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 2 {
		t.Errorf("Objects() = %v, want [1 2]", ids)
	}
}

// steadyState runs k random requests with per-gateway weights and returns
// each host's service share (measured over the second half).
func steadyState(r *Redirector, id object.ID, gateways []topology.NodeID, weights []float64, k int, rng *rand.Rand) map[topology.NodeID]float64 {
	cum := make([]float64, len(weights))
	total := 0.0
	for i, w := range weights {
		total += w
		cum[i] = total
	}
	counts := make(map[topology.NodeID]int)
	measured := 0
	for i := 0; i < k; i++ {
		u := rng.Float64() * total
		g := gateways[len(gateways)-1]
		for j, c := range cum {
			if u < c {
				g = gateways[j]
				break
			}
		}
		h, err := r.ChooseReplica(g, id)
		if err != nil {
			continue
		}
		if i >= k/2 {
			counts[h]++
			measured++
		}
	}
	shares := make(map[topology.NodeID]float64)
	for h, c := range counts {
		shares[h] = float64(c) / float64(measured)
	}
	return shares
}

// TestTheorem1And2ReplicationBounds empirically verifies the replication
// load bounds on randomized steady demands: after host i replicates to
// host j, i's service share may fall by at most (3/4) of its prior share
// (Thm 1) and j's share may rise by at most 4·(i's prior share)/aff(x_i)
// (Thm 2).
func TestTheorem1And2ReplicationBounds(t *testing.T) {
	const n = 8
	topo := topology.Line(n)
	routes := routing.New(topo)
	for trial := 0; trial < 60; trial++ {
		rng := workload.Stream(int64(1000+trial), 0)
		r, err := NewRedirector(0, routes, PolicyPaper, 2)
		if err != nil {
			t.Fatal(err)
		}
		// Random replica set of 1-3 hosts with affinities 1-3.
		numReplicas := rng.Intn(3) + 1
		hosts := rng.Perm(n)[:numReplicas]
		for _, h := range hosts {
			r.NotifyReplicaChange(testObj, topology.NodeID(h), rng.Intn(3)+1)
		}
		gateways := make([]topology.NodeID, n)
		weights := make([]float64, n)
		for i := range gateways {
			gateways[i] = topology.NodeID(i)
			weights[i] = rng.Float64() + 0.01
		}
		pre := steadyState(r, testObj, gateways, weights, 40000, rng)

		// Host i replicates to a host j without a replica.
		i := topology.NodeID(hosts[rng.Intn(numReplicas)])
		var affI int
		for _, rep := range r.Replicas(testObj) {
			if rep.Host == i {
				affI = rep.Aff
			}
		}
		j := topology.NodeID(-1)
		for _, cand := range rng.Perm(n) {
			if _, isReplica := pre[topology.NodeID(cand)]; !isReplica {
				found := false
				for _, rep := range r.Replicas(testObj) {
					if rep.Host == topology.NodeID(cand) {
						found = true
					}
				}
				if !found {
					j = topology.NodeID(cand)
					break
				}
			}
		}
		if j < 0 {
			continue
		}
		r.NotifyReplicaChange(testObj, j, 1)
		post := steadyState(r, testObj, gateways, weights, 40000, rng)

		const tol = 0.04 // sampling/convergence slack on shares
		decrease := pre[i] - post[i]
		if bound := ReplicationSourceMaxDecrease(pre[i]); decrease > bound+tol {
			t.Errorf("trial %d: Thm1 violated: source share fell %.4f > bound %.4f (pre %.4f)",
				trial, decrease, bound, pre[i])
		}
		increase := post[j] - pre[j]
		if bound := ReplicationTargetMaxIncrease(pre[i], affI); increase > bound+tol {
			t.Errorf("trial %d: Thm2 violated: target share rose %.4f > bound %.4f (pre_i %.4f aff %d)",
				trial, increase, bound, pre[i], affI)
		}
	}
}

// TestTheorem3And4MigrationBounds does the same for migration: one
// affinity unit of i moves to j.
func TestTheorem3And4MigrationBounds(t *testing.T) {
	const n = 8
	topo := topology.Line(n)
	routes := routing.New(topo)
	for trial := 0; trial < 60; trial++ {
		rng := workload.Stream(int64(5000+trial), 0)
		r, err := NewRedirector(0, routes, PolicyPaper, 2)
		if err != nil {
			t.Fatal(err)
		}
		numReplicas := rng.Intn(3) + 1
		hosts := rng.Perm(n)[:numReplicas]
		affs := make(map[topology.NodeID]int)
		for _, h := range hosts {
			aff := rng.Intn(3) + 1
			affs[topology.NodeID(h)] = aff
			r.NotifyReplicaChange(testObj, topology.NodeID(h), aff)
		}
		gateways := make([]topology.NodeID, n)
		weights := make([]float64, n)
		for i := range gateways {
			gateways[i] = topology.NodeID(i)
			weights[i] = rng.Float64() + 0.01
		}
		pre := steadyState(r, testObj, gateways, weights, 40000, rng)

		i := topology.NodeID(hosts[rng.Intn(numReplicas)])
		affI := affs[i]
		var j topology.NodeID = -1
		for _, cand := range rng.Perm(n) {
			if _, ok := affs[topology.NodeID(cand)]; !ok {
				j = topology.NodeID(cand)
				break
			}
		}
		if j < 0 {
			continue
		}
		// Migrate one unit: create on j, reduce on i (drop i if aff was 1).
		r.NotifyReplicaChange(testObj, j, 1)
		if affI > 1 {
			r.NotifyReplicaChange(testObj, i, affI-1)
		} else if !r.RequestDrop(testObj, i) {
			t.Fatalf("trial %d: drop refused with %d replicas", trial, r.ReplicaCount(testObj))
		}
		post := steadyState(r, testObj, gateways, weights, 40000, rng)

		const tol = 0.04
		decrease := pre[i] - post[i]
		if bound := MigrationSourceMaxDecrease(pre[i], affI); decrease > bound+tol {
			t.Errorf("trial %d: Thm3 violated: source fell %.4f > bound %.4f", trial, decrease, bound)
		}
		increase := post[j] - pre[j]
		if bound := MigrationTargetMaxIncrease(pre[i], affI); increase > bound+tol {
			t.Errorf("trial %d: Thm4 violated: target rose %.4f > bound %.4f", trial, increase, bound)
		}
	}
}

// TestTheorem5FloorAfterReplication: when the source's unit service rate
// exceeds m, every replica's post-replication unit rate stays above ~m/4.
func TestTheorem5FloorAfterReplication(t *testing.T) {
	const n = 8
	topo := topology.Line(n)
	routes := routing.New(topo)
	checked := 0
	for trial := 0; trial < 80 && checked < 25; trial++ {
		rng := workload.Stream(int64(9000+trial), 0)
		r, err := NewRedirector(0, routes, PolicyPaper, 2)
		if err != nil {
			t.Fatal(err)
		}
		numReplicas := rng.Intn(2) + 1
		hosts := rng.Perm(n)[:numReplicas]
		affs := make(map[topology.NodeID]int)
		for _, h := range hosts {
			aff := rng.Intn(2) + 1
			affs[topology.NodeID(h)] = aff
			r.NotifyReplicaChange(testObj, topology.NodeID(h), aff)
		}
		gateways := make([]topology.NodeID, n)
		weights := make([]float64, n)
		for i := range gateways {
			gateways[i] = topology.NodeID(i)
			weights[i] = rng.Float64() + 0.01
		}
		pre := steadyState(r, testObj, gateways, weights, 40000, rng)
		// Treat total rate as 1 req/s; m is a share threshold here.
		const m = 0.3
		i := topology.NodeID(hosts[0])
		if pre[i]/float64(affs[i]) <= m {
			continue // precondition of Theorem 5 not met
		}
		checked++
		var j topology.NodeID = -1
		for _, cand := range rng.Perm(n) {
			if _, ok := affs[topology.NodeID(cand)]; !ok {
				j = topology.NodeID(cand)
				break
			}
		}
		r.NotifyReplicaChange(testObj, j, 1)
		post := steadyState(r, testObj, gateways, weights, 40000, rng)
		floor := MinUnitAccessAfterReplication(m)
		for _, rep := range r.Replicas(testObj) {
			unit := post[rep.Host] / float64(rep.Aff)
			if unit < floor*0.9 {
				t.Errorf("trial %d: replica %d unit rate %.4f below Thm5 floor %.4f",
					trial, rep.Host, unit, floor)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no trial met the Theorem 5 precondition; fixture broken")
	}
}

func TestChooseReplicaDistanceTieBreak(t *testing.T) {
	// Two replicas equidistant from the gateway: the smaller host ID is
	// the deterministic "closest".
	topo := topology.Star(5) // leaves 1..4 all at distance 2 from each other
	r, _ := newTestRedirector(t, topo, PolicyPaper)
	r.NotifyReplicaChange(testObj, 3, 1)
	r.NotifyReplicaChange(testObj, 4, 1)
	h, err := r.ChooseReplica(1, testObj)
	if err != nil {
		t.Fatal(err)
	}
	if h != 3 {
		t.Fatalf("tie broken to %d, want smaller ID 3", h)
	}
}

func TestRoundRobinCursorSurvivesReplicaChange(t *testing.T) {
	topo := topology.Line(6)
	r, _ := newTestRedirector(t, topo, PolicyRoundRobin)
	r.NotifyReplicaChange(testObj, 0, 1)
	r.NotifyReplicaChange(testObj, 2, 1)
	if _, err := r.ChooseReplica(0, testObj); err != nil {
		t.Fatal(err)
	}
	// Growing the set must not break rotation.
	r.NotifyReplicaChange(testObj, 4, 1)
	seen := map[topology.NodeID]int{}
	for i := 0; i < 300; i++ {
		h, err := r.ChooseReplica(0, testObj)
		if err != nil {
			t.Fatal(err)
		}
		seen[h]++
	}
	for _, h := range []topology.NodeID{0, 2, 4} {
		if seen[h] != 100 {
			t.Fatalf("host %d served %d of 300, want exact rotation", h, seen[h])
		}
	}
}

func TestObjectsAreIsolated(t *testing.T) {
	// Heavy traffic to one object must not affect another's distribution.
	topo := topology.Line(6)
	r, _ := newTestRedirector(t, topo, PolicyPaper)
	a, b := object.ID(1), object.ID(2)
	r.NotifyReplicaChange(a, 0, 1)
	r.NotifyReplicaChange(a, 5, 1)
	r.NotifyReplicaChange(b, 0, 1)
	r.NotifyReplicaChange(b, 5, 1)
	for i := 0; i < 10000; i++ {
		if _, err := r.ChooseReplica(0, a); err != nil {
			t.Fatal(err)
		}
	}
	// Object b's counts are untouched: its first request from gateway 5
	// goes to its local replica 5.
	h, err := r.ChooseReplica(5, b)
	if err != nil {
		t.Fatal(err)
	}
	if h != 5 {
		t.Fatalf("object b routed to %d, want its closest replica 5", h)
	}
	for _, rep := range r.Replicas(b) {
		if rep.Host == 0 && rep.Rcnt != 1 {
			t.Fatalf("object b contaminated by object a's traffic: %+v", rep)
		}
	}
}

func TestPurgeHost(t *testing.T) {
	topo := topology.Line(4)
	r, _ := newTestRedirector(t, topo, PolicyPaper)
	r.NotifyReplicaChange(object.ID(1), 0, 1)
	r.NotifyReplicaChange(object.ID(1), 2, 1)
	r.NotifyReplicaChange(object.ID(2), 2, 1) // sole replica on the victim
	affected := r.PurgeHost(2)
	if len(affected) != 2 || affected[0] != 1 || affected[1] != 2 {
		t.Fatalf("affected = %v, want [1 2]", affected)
	}
	if got := r.ReplicaCount(object.ID(1)); got != 1 {
		t.Fatalf("object 1 replicas = %d, want 1", got)
	}
	if got := r.ReplicaCount(object.ID(2)); got != 0 {
		t.Fatalf("object 2 replicas = %d, want 0 (unavailable)", got)
	}
	if _, err := r.ChooseReplica(0, object.ID(2)); err == nil {
		t.Fatal("routed request to purged sole replica")
	}
	// Recovery: re-register and route again.
	r.NotifyReplicaChange(object.ID(2), 2, 1)
	if _, err := r.ChooseReplica(0, object.ID(2)); err != nil {
		t.Fatalf("routing after recovery failed: %v", err)
	}
}

// scanChoose is a choice as one full scan of the replica set, the way every
// choice was made before the redirector memoized the closest and the
// least-loaded replica: the oracle ChooseReplica must reproduce. It returns
// the chosen index, or -1 when reachable admits no replica. It exists only
// here.
func scanChoose(policy Policy, c float64, dist []int32, reps []Replica, cursor *int, reachable func(topology.NodeID) bool) int {
	closest, least := -1, -1
	for i, rep := range reps {
		if reachable != nil && !reachable(rep.Host) {
			continue
		}
		if closest < 0 || dist[rep.Host] < dist[reps[closest].Host] {
			closest = i
		}
		if least < 0 || rep.unitRcnt() < reps[least].unitRcnt() {
			least = i
		}
	}
	switch {
	case closest < 0:
		return -1
	case policy == PolicyRoundRobin:
		for {
			*cursor = (*cursor + 1) % len(reps)
			if reachable == nil || reachable(reps[*cursor].Host) {
				return *cursor
			}
		}
	case policy == PolicyClosest || reps[closest].unitRcnt() <= c*reps[least].unitRcnt():
		return closest
	}
	return least
}

// scanModel is the redirector's bookkeeping without memos: sorted replica
// sets, round-robin cursors, counts reset to 1 on every set change.
type scanModel struct {
	sets    [choiceObjects][]Replica
	cursors [choiceObjects]int
}

const choiceObjects = 3

func (m *scanModel) reset(id object.ID) {
	for i := range m.sets[id] {
		m.sets[id][i].Rcnt = 1
	}
}

func (m *scanModel) notify(id object.ID, h topology.NodeID, aff int) {
	at := 0
	for at < len(m.sets[id]) && m.sets[id][at].Host < h {
		at++
	}
	if at < len(m.sets[id]) && m.sets[id][at].Host == h {
		m.sets[id][at].Aff = aff
	} else {
		m.sets[id] = slices.Insert(m.sets[id], at, Replica{Host: h, Aff: aff})
	}
	m.reset(id)
}

func (m *scanModel) remove(id object.ID, h topology.NodeID) bool {
	for i := range m.sets[id] {
		if m.sets[id][i].Host == h {
			m.sets[id] = slices.Delete(m.sets[id], i, i+1)
			m.reset(id)
			return true
		}
	}
	return false
}

// choiceCoverage counts the choices a program made on each path: the
// paper policy's one-pass loop and its memos, and choosePass.
type choiceCoverage struct{ loop, memo, pass int }

// runChoiceProgram reads a fleet and a sequence of redirector operations
// from data and applies each to a Redirector and to a scanModel: choices
// in bursts from one gateway (so the closest replica's count climbs past
// the distribution constant), notifications with affinity changes, drops,
// record removals, host purges and reachability filters. After every step
// each returned host, verdict and replica record, counts included, must
// agree.
func runChoiceProgram(t *testing.T, data []byte) choiceCoverage {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	// 10 to 24 nodes: replica sets on both sides of nearTableMin. A star
	// and a ring have distance ties; a line has none.
	n := 10 + next()%15
	topo := []func(int) *topology.Topology{topology.Star, topology.Ring, topology.Line}[next()%3](n)
	routes := routing.New(topo)
	policy := Policy(1 + next()%3)
	r, err := NewRedirector(0, routes, policy, 2)
	if err != nil {
		t.Fatal(err)
	}
	floor := 1 + next()%2
	r.SetReplicaFloor(floor)
	var m scanModel
	var reachable func(topology.NodeID) bool
	var cov choiceCoverage
	for step := 0; len(data) > 0; step++ {
		id, h, op := object.ID(next()%choiceObjects), topology.NodeID(next()%n), next()
		what := ""
		switch {
		case op < 150:
			what = fmt.Sprintf("%d choices for %d from gateway %d", 1+op%8, id, h)
			for k := 0; k <= op%8; k++ {
				switch {
				case reachable != nil || policy != PolicyPaper:
					cov.pass++
				case len(m.sets[id]) >= nearTableMin:
					cov.memo++
				default:
					cov.loop++
				}
				want := -1
				if len(m.sets[id]) > 0 {
					want = scanChoose(policy, 2, routes.DistancesFrom(h), m.sets[id], &m.cursors[id], reachable)
				}
				got, err := r.ChooseReplica(h, id)
				if want < 0 {
					if err == nil {
						t.Fatalf("step %d (%s): chose %d, the scan finds no replica", step, what, got)
					}
					continue
				}
				m.sets[id][want].Rcnt++
				if err != nil || got != m.sets[id][want].Host {
					t.Fatalf("step %d (%s): chose %d (%v), the scan chooses %d", step, what, got, err, m.sets[id][want].Host)
				}
			}
		case op < 200:
			aff := 1 + op%3
			what = fmt.Sprintf("notify %d on %d, affinity %d", id, h, aff)
			r.NotifyReplicaChange(id, h, aff)
			m.notify(id, h, aff)
		case op < 215:
			what = fmt.Sprintf("request drop of %d on %d", id, h)
			want := len(m.sets[id]) > floor && m.remove(id, h)
			if got := r.RequestDrop(id, h); got != want {
				t.Fatalf("step %d (%s): verdict %v, want %v", step, what, got, want)
			}
		case op < 225:
			what = fmt.Sprintf("remove record of %d on %d", id, h)
			if got, want := r.RemoveRecord(id, h), m.remove(id, h); got != want {
				t.Fatalf("step %d (%s): removed %v, want %v", step, what, got, want)
			}
		case op < 230:
			what = fmt.Sprintf("purge %d", h)
			var want []object.ID
			for id := object.ID(0); id < choiceObjects; id++ {
				if m.remove(id, h) {
					want = append(want, id)
				}
			}
			if got := r.PurgeHost(h); !slices.Equal(got, want) {
				t.Fatalf("step %d (%s): affected %v, want %v", step, what, got, want)
			}
		case op < 240:
			down := uint32(next()) | uint32(next())<<8 | uint32(next())<<16
			what = fmt.Sprintf("filter out hosts %b", down)
			reachable = func(h topology.NodeID) bool { return down>>h&1 == 0 }
			if op%2 == 0 {
				what, reachable = "no filter", nil
			}
			r.SetReachable(reachable)
		default:
			// A large set at once: every stride-th node, affinities 1–3.
			what = fmt.Sprintf("notify %d on every %d-th node", id, 1+op%2)
			for k := 0; k < n; k += 1 + op%2 {
				r.NotifyReplicaChange(id, topology.NodeID(k), 1+k%3)
				m.notify(id, topology.NodeID(k), 1+k%3)
			}
		}
		for id := object.ID(0); id < choiceObjects; id++ {
			if got := r.Replicas(id); !slices.Equal(got, m.sets[id]) {
				t.Fatalf("step %d (%s): object %d records %+v, the scan model %+v", step, what, id, got, m.sets[id])
			}
		}
	}
	return cov
}

// TestChooseReplicaMatchesScan runs seeded programs of every policy, with
// and without a reachability filter, over fleets with distance and
// unit-count ties, and requires the memoized choice to equal the full
// scan's after every step.
func TestChooseReplicaMatchesScan(t *testing.T) {
	var cov choiceCoverage
	for seed := int64(0); seed < 90; seed++ {
		data := make([]byte, 600)
		workload.Stream(seed, 0).Read(data)
		c := runChoiceProgram(t, data)
		cov.loop, cov.memo, cov.pass = cov.loop+c.loop, cov.memo+c.memo, cov.pass+c.pass
	}
	if cov.loop == 0 || cov.memo == 0 || cov.pass == 0 {
		t.Fatalf("choices per path %+v: every path must run", cov)
	}
	t.Logf("choices per path: %+v", cov)
}

// FuzzChooseReplica is TestChooseReplicaMatchesScan over fuzzed programs.
func FuzzChooseReplica(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		data := make([]byte, 200)
		workload.Stream(seed, 0).Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) { runChoiceProgram(t, data) })
}

// benchRedirector builds a redirector over the full UUNET backbone with
// nReplicas replicas of testObj spread across the nodes.
func benchRedirector(b *testing.B, policy Policy, nReplicas int) *Redirector {
	b.Helper()
	routes := routing.New(topology.UUNET())
	r, err := NewRedirector(routes.MinAvgDistanceNode(), routes, policy, 2)
	if err != nil {
		b.Fatal(err)
	}
	n := routes.NumNodes()
	for i := 0; i < nReplicas; i++ {
		r.NotifyReplicaChange(testObj, topology.NodeID((i*n)/nReplicas), 1)
	}
	return r
}

// BenchmarkChooseReplica measures the Fig. 2 per-request decision on the
// UUNET backbone — the redirector's hot path, which must not allocate.
// Sets of 2 take the one-pass loop, the larger ones the memos; the notify
// case changes an affinity every 64 choices, which resets the counts and
// empties the closest table, to price the invalidation.
func BenchmarkChooseReplica(b *testing.B) {
	for _, bc := range []struct{ replicas, notifyEvery int }{{2, 0}, {8, 0}, {32, 0}, {53, 0}, {32, 64}} {
		name := fmt.Sprintf("replicas=%d", bc.replicas)
		if bc.notifyEvery > 0 {
			name += fmt.Sprintf(",notify=%d", bc.notifyEvery)
		}
		b.Run(name, func(b *testing.B) {
			r := benchRedirector(b, PolicyPaper, bc.replicas)
			n := 53 // UUNET nodes
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if bc.notifyEvery > 0 && i%bc.notifyEvery == 0 {
					r.NotifyReplicaChange(testObj, 0, 1+i/bc.notifyEvery%2)
				}
				if _, err := r.ChooseReplica(topology.NodeID(i%n), testObj); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
