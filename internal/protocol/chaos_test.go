package protocol

import (
	"testing"
	"time"

	"radar/internal/object"
	"radar/internal/topology"
	"radar/internal/workload"
)

// TestChaosInvariants runs randomized interleavings of every protocol
// operation — request bursts, placement rounds, direct CreateObj calls,
// load swings — and asserts the cross-component invariants after every
// step: the redirector's replica sets match host state exactly (same
// hosts, same affinities), every object keeps at least one replica, and
// affinities stay positive.
func TestChaosInvariants(t *testing.T) {
	const (
		numObjects = 30
		steps      = 400
	)
	for seed := int64(0); seed < 20; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			t.Parallel()
			rng := workload.Stream(seed, 0)
			params := DefaultParams()
			c := newCluster(t, topology.Ring(8), params)
			n := c.topo.NumNodes()
			for i := 0; i < numObjects; i++ {
				c.seed(object.ID(i), topology.NodeID(i%n))
			}
			now := time.Duration(0)
			for step := 0; step < steps; step++ {
				switch rng.Intn(10) {
				case 0, 1, 2, 3: // request burst at a random replica holder
					id := object.ID(rng.Intn(numObjects))
					reps := c.red.Replicas(id)
					if len(reps) == 0 {
						t.Fatalf("step %d: object %d lost all replicas", step, id)
					}
					holder := reps[rng.Intn(len(reps))].Host
					gw := topology.NodeID(rng.Intn(n))
					for k := 0; k < rng.Intn(50)+1; k++ {
						c.hosts[holder].OnRequest(id, gw)
					}
				case 4, 5, 6: // a host runs placement
					now += time.Duration(rng.Intn(100)+1) * time.Second
					c.hosts[rng.Intn(n)].DecidePlacement(now)
				case 7: // random load swing
					c.loads[rng.Intn(n)].total = rng.Float64() * 2 * params.HighWatermark
					id := object.ID(rng.Intn(numObjects))
					c.loads[rng.Intn(n)].perObj[id] = rng.Float64() * 10
				case 8: // direct CreateObj from a random peer
					id := object.ID(rng.Intn(numObjects))
					from := topology.NodeID(rng.Intn(n))
					to := topology.NodeID(rng.Intn(n))
					if from == to {
						continue
					}
					method := Migrate
					if rng.Intn(2) == 0 {
						method = Replicate
					}
					if c.hosts[to].CreateObj(now, method, id, rng.Float64()*5, 1, from) && method == Migrate {
						// The initiating host completes the migration.
						if st := c.hosts[from].objs.get(id); st != nil {
							c.hosts[from].reduceAffinity(now, id, st)
						}
					}
				case 9: // measurement interval closes everywhere
					for i := 0; i < n; i++ {
						c.hosts[i].OnMeasurementIntervalClose(now - 20*time.Second)
					}
				}
				c.checkSubsetInvariant(t)
				for i := 0; i < numObjects; i++ {
					id := object.ID(i)
					if c.red.ReplicaCount(id) == 0 {
						t.Fatalf("step %d: object %d has no replicas", step, id)
					}
					for _, rep := range c.red.Replicas(id) {
						if rep.Aff < 1 {
							t.Fatalf("step %d: object %d replica on %d has affinity %d", step, id, rep.Host, rep.Aff)
						}
						if rep.Rcnt < 0 {
							t.Fatalf("step %d: negative request count", step)
						}
					}
				}
			}
		})
	}
}

// TestChaosLoadEstimatorNeverNegative drives random accept/shed/close
// sequences and asserts estimates stay sane.
func TestChaosLoadEstimatorNeverNegative(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := workload.Stream(seed, 0)
		var e LoadEstimator
		now := time.Duration(0)
		measured := rng.Float64() * 100
		for step := 0; step < 300; step++ {
			now += time.Duration(rng.Intn(10)+1) * time.Second
			switch rng.Intn(3) {
			case 0:
				e.OnAccept(now, measured, rng.Float64()*20)
			case 1:
				e.OnShed(now, measured, rng.Float64()*20)
			case 2:
				e.OnIntervalClose(now - time.Duration(rng.Intn(40))*time.Second)
			}
			lo, hi := e.Bounds(measured)
			if lo < 0 {
				t.Fatalf("seed %d step %d: negative lower bound %v", seed, step, lo)
			}
			if e.upperActive && e.lowerActive && lo > hi {
				t.Fatalf("seed %d step %d: lower %v above upper %v", seed, step, lo, hi)
			}
			if e.UpperActiveFor(now) < 0 {
				t.Fatalf("seed %d step %d: negative active-for", seed, step)
			}
		}
	}
}
