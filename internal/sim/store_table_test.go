package sim

import (
	"testing"
	"time"

	"radar/internal/fault"
	"radar/internal/protocol"
	"radar/internal/store"
	"radar/internal/topology"
	"radar/internal/workload"
)

// authReplicas is a stack's authoritative occupancy: the Replicas of its
// last layer, the authoritative tier.
func authReplicas(st *store.Stack) int {
	layers := st.Stats(nil)
	return int(layers[len(layers)-1].Replicas)
}

// TestStoreMatchesObjectTable runs a short sim-churn-shaped run — hot
// sites at the Figure 9 watermarks, floor 2, a lossy control plane and a
// crash every 30 s — over a plain and a cached stack, and then holds every
// machine's stack occupancy against its host's object table: the table
// names the replicas, the stack only counts them, and every create and
// drop must have reached it.
func TestStoreMatchesObjectTable(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	for _, spec := range []string{"mem", "cache(mem:8,disk:1ms)"} {
		t.Run(spec, func(t *testing.T) {
			gen, err := workload.NewHotSites(testUniverse, topology.UUNET().NumNodes(), 0.9, 3)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig(gen, 3)
			cfg.Universe = testUniverse
			cfg.Duration = 4 * time.Minute
			cfg.Store = mustStore(t, spec)
			cfg.Protocol = protocol.HighLoadParams()
			cfg.Protocol.ReplicaFloor = 2
			cfg.Protocol.AvailabilityWeight = 0.5
			cfg.Faults = fault.Spec{MsgDrop: 0.2, MsgDup: 0.05, MsgDelay: 20 * time.Millisecond}
			for k := 1; k <= 6; k++ {
				n, at := topology.NodeID(7*k%53), time.Duration(30*k)*time.Second
				cfg.Faults.Events = append(cfg.Faults.Events,
					fault.Event{Kind: fault.HostDown, At: at, Node: n},
					fault.Event{Kind: fault.HostUp, At: at + 20*time.Second, Node: n})
			}
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Counters.RepairReplications == 0 || res.Counters.Drops == 0 {
				t.Fatalf("the run repaired %d and dropped %d replicas: the tables never churned",
					res.Counters.RepairReplications, res.Counters.Drops)
			}
			for n, m := range s.mem.machines {
				if got, want := authReplicas(m.Store), m.Host.NumObjects(); got != want {
					t.Fatalf("machine %d: %d replicas in the stack, %d in the host table", n, got, want)
				}
			}
		})
	}
}

// TestSeededReplicasCountInTheStore: seeding fills a host past a one-replica
// cap, and every seeded replica counts in the stack, so occupancy never
// trails the host's table.
func TestSeededReplicasCountInTheStore(t *testing.T) {
	gen, err := workload.NewUniform(testUniverse)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t, gen, time.Minute)
	cfg.Store = mustStore(t, "mem:1")
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for n, m := range s.mem.machines {
		if got, want := authReplicas(m.Store), m.Host.NumObjects(); got != want || want < 2 {
			t.Errorf("machine %d: %d replicas in the stack, %d in the host table (want more than one)", n, got, want)
		}
	}
}
