package protocol

import (
	"math/rand"
	"testing"
	"testing/quick"

	"radar/internal/object"
	"radar/internal/routing"
	"radar/internal/topology"
	"radar/internal/workload"
)

// The tests in this file check the Theorem 1-5 bounds (paper §3) against
// randomized feasible system states rather than hand-picked numbers.
//
// Model: one object, replicas 1..n with affinities a_i >= 1 and unit
// request counts w_i. The distribution algorithm (Fig. 2, constant c=2)
// keeps every unit count within a factor 2 of the minimum, so a feasible
// steady state is modeled by drawing w_i uniformly from [1, 2]. The
// object attracts total load L; replica i carries the share
// ℓ_i = L·a_i·w_i / Σ_j a_j·w_j. A replication or migration then moves
// the system to a fresh, independently drawn feasible state over the new
// replica set; the theorems bound how far any such post-state can move a
// host's load, and the properties below assert exactly that.

// boundState is one randomized feasible steady state.
type boundState struct {
	affs    []int     // replica affinities, source is index 0
	weights []float64 // unit request counts, each in [1, 2]
	total   float64   // total object load L
}

func randomState(rng *rand.Rand, nReplicas int) boundState {
	s := boundState{
		affs:    make([]int, nReplicas),
		weights: make([]float64, nReplicas),
		total:   1 + 99*rng.Float64(),
	}
	for i := range s.affs {
		s.affs[i] = 1 + rng.Intn(6)
		s.weights[i] = 1 + rng.Float64()
	}
	return s
}

// reweigh draws fresh feasible unit counts for the same replica set.
func (s boundState) reweigh(rng *rand.Rand) boundState {
	out := s
	out.weights = make([]float64, len(s.weights))
	for i := range out.weights {
		out.weights[i] = 1 + rng.Float64()
	}
	return out
}

// load returns replica i's share of the object's load.
func (s boundState) load(i int) float64 {
	sum := 0.0
	for j := range s.affs {
		sum += float64(s.affs[j]) * s.weights[j]
	}
	return s.total * float64(s.affs[i]) * s.weights[i] / sum
}

const boundTrials = 5000

// TestReplicationBoundsProperty: Theorems 1 and 2. Replicating the
// source replica onto a fresh host (affinity 1, counts reset) and letting
// the distribution algorithm settle into any feasible state must not
// drop the source's load by more than ReplicationSourceMaxDecrease nor
// raise the recipient's load by more than ReplicationTargetMaxIncrease.
func TestReplicationBoundsProperty(t *testing.T) {
	rng := workload.Stream(1, 0)
	for trial := 0; trial < boundTrials; trial++ {
		pre := randomState(rng, 1+rng.Intn(5))
		srcLoad := pre.load(0)
		srcAff := pre.affs[0]

		post := pre
		post.affs = append(append([]int{}, pre.affs...), 1) // new replica, aff 1
		post.weights = append(append([]float64{}, pre.weights...), 0)
		post = post.reweigh(rng)

		decrease := srcLoad - post.load(0)
		if max := ReplicationSourceMaxDecrease(srcLoad); decrease > max+1e-9 {
			t.Fatalf("trial %d: thm1 violated: source dropped %v, bound %v (state %+v -> %+v)",
				trial, decrease, max, pre, post)
		}
		increase := post.load(len(post.affs) - 1) // recipient had no load before
		if max := ReplicationTargetMaxIncrease(srcLoad, srcAff); increase > max+1e-9 {
			t.Fatalf("trial %d: thm2 violated: target gained %v, bound %v (state %+v -> %+v)",
				trial, increase, max, pre, post)
		}
	}
}

// TestMigrationBoundsProperty: Theorems 3 and 4. Migrating one affinity
// unit from the source to a fresh host must not drop the source's load by
// more than MigrationSourceMaxDecrease nor raise the recipient's by more
// than MigrationTargetMaxIncrease; with affinity 1 the object leaves the
// source entirely and the decrease is exactly the whole load.
func TestMigrationBoundsProperty(t *testing.T) {
	rng := workload.Stream(2, 0)
	for trial := 0; trial < boundTrials; trial++ {
		pre := randomState(rng, 1+rng.Intn(5))
		srcLoad := pre.load(0)
		srcAff := pre.affs[0]

		post := pre
		post.affs = append(append([]int{}, pre.affs...), 1) // moved unit, aff 1
		post.weights = append(append([]float64{}, pre.weights...), 0)
		post.affs[0]-- // one unit leaves the source
		post = post.reweigh(rng)

		var postSrc float64
		if post.affs[0] > 0 {
			postSrc = post.load(0)
		} // affinity 0: replica gone, load 0

		decrease := srcLoad - postSrc
		if max := MigrationSourceMaxDecrease(srcLoad, srcAff); decrease > max+1e-9 {
			t.Fatalf("trial %d: thm3 violated: source dropped %v, bound %v (state %+v -> %+v)",
				trial, decrease, max, pre, post)
		}
		increase := post.load(len(post.affs) - 1)
		if max := MigrationTargetMaxIncrease(srcLoad, srcAff); increase > max+1e-9 {
			t.Fatalf("trial %d: thm4 violated: target gained %v, bound %v (state %+v -> %+v)",
				trial, increase, max, pre, post)
		}
	}
}

// TestReplicationThresholdProperty: Theorem 5. If replication only
// triggers above unit access count m, every replica keeps a unit count
// above m/4, so with deletion threshold u satisfying the stability
// constraint 4u < m a fresh replica can never be eligible for immediate
// deletion.
func TestReplicationThresholdProperty(t *testing.T) {
	f := func(mRaw, uRaw uint16) bool {
		m := float64(mRaw)/100 + 0.01
		floor := MinUnitAccessAfterReplication(m)
		if floor != m/4 {
			return false
		}
		u := float64(uRaw) / 100
		if 4*u < m && floor <= u {
			return false // stability constraint must protect new replicas
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestDistributionKeepsUnitCountsBalanced drives a paper-policy
// redirector with random gateways and replica sets and checks the
// invariant behind the feasible-state model above: after every choice,
// each replica's unit request count stays within DistConstant times the
// minimum, plus the one in-flight increment.
func TestDistributionKeepsUnitCountsBalanced(t *testing.T) {
	topo := topology.UUNET()
	routes := routing.New(topo)
	rng := workload.Stream(3, 0)
	const id = object.ID(42)

	for trial := 0; trial < 50; trial++ {
		r, err := NewRedirector(routes.MinAvgDistanceNode(), routes, PolicyPaper, 2)
		if err != nil {
			t.Fatal(err)
		}
		nReplicas := 1 + rng.Intn(6)
		for i := 0; i < nReplicas; i++ {
			host := topology.NodeID(rng.Intn(topo.NumNodes()))
			r.NotifyReplicaChange(id, host, 1+rng.Intn(4))
		}
		for step := 0; step < 400; step++ {
			g := topology.NodeID(rng.Intn(topo.NumNodes()))
			if _, err := r.ChooseReplica(g, id); err != nil {
				t.Fatal(err)
			}
			reps := r.Replicas(id)
			min := reps[0].unitRcnt()
			for _, rep := range reps {
				if u := rep.unitRcnt(); u < min {
					min = u
				}
			}
			for _, rep := range reps {
				if u := rep.unitRcnt(); u > 2*min+1+1e-9 {
					t.Fatalf("trial %d step %d: unit count %v exceeds 2·min+1 (min %v, replicas %+v)",
						trial, step, u, min, reps)
				}
			}
		}
	}
}
