package sim

import (
	"testing"
	"time"

	"radar/internal/object"
	"radar/internal/protocol"
	"radar/internal/server"
	"radar/internal/topology"
	"radar/internal/workload"
)

// TestVicinityOverloadClosestVsPaper reproduces the §3 motivating example
// end to end: one gateway swamps the objects homed on its own node at a
// rate beyond the server's capacity. Under closest-replica routing no
// amount of replication relieves the victim — the vicinity requests'
// closest replica is always the victim itself; the paper's distributor
// caps the victim at roughly 2/(n+1) of the vicinity demand and spills
// the rest to remote replicas.
func TestVicinityOverloadClosestVsPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	run := func(policy protocol.Policy) (victimLoad float64, victimQueue int) {
		topo := topology.TwoClusters(4) // nodes 0-3 cluster A, 4-7 cluster B
		u := object.Universe{Count: 320, SizeBytes: 12 << 10}
		targets := u.ObjectsHomedAt(0, topo.NumNodes())
		background, err := workload.NewUniform(u)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := workload.NewFocused(targets,
			[]topology.NodeID{0}, 1.0, background)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(gen, 5)
		cfg.Topo = topo
		cfg.Universe = u
		cfg.Policy = policy
		cfg.Server = server.Config{CapacityRPS: 50}
		cfg.Protocol.HighWatermark = 45
		cfg.Protocol.LowWatermark = 35
		// Gateway 0 fires 100 req/s at its own node's objects, twice the
		// node's capacity. Every gateway fires at the one rate, so the
		// victim is the fleet's one weak host: to the other seven, ten
		// times as strong, the same rate is the trickle of background
		// demand a tenth of it would be to a peer of the victim's size.
		cfg.NodeRequestRPS = 100
		cfg.HostWeights = []float64{1, 10, 10, 10, 10, 10, 10, 10}
		cfg.Duration = 70 * time.Minute
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.InvariantsError != nil {
			t.Fatal(res.InvariantsError)
		}
		return s.Servers()[0].Load(), s.Servers()[0].QueueLen()
	}

	closestLoad, closestQueue := run(protocol.PolicyClosest)
	paperLoad, paperQueue := run(protocol.PolicyPaper)
	// Closest routing keeps the victim saturated at its 50 req/s capacity
	// with a standing (timeout-capped) backlog; the paper's distributor
	// sheds enough vicinity traffic for the queue to drain and the load to
	// fall below capacity.
	if closestLoad < 48 {
		t.Errorf("closest-policy victim load = %.1f, expected pinned near capacity 50", closestLoad)
	}
	if closestQueue < 1000 {
		t.Errorf("closest-policy victim queue = %d, expected a standing backlog", closestQueue)
	}
	if paperLoad > 48 {
		t.Errorf("paper-policy victim load = %.1f, expected relief below capacity", paperLoad)
	}
	if paperQueue > closestQueue/10 {
		t.Errorf("paper-policy victim queue = %d vs closest %d, expected drained", paperQueue, closestQueue)
	}
}
