package sim

import (
	"testing"
	"time"

	"radar/internal/fault"
	"radar/internal/object"
	"radar/internal/protocol"
	"radar/internal/topology"
	"radar/internal/workload"
)

// TestStoreMatchesObjectTable runs a short sim-churn-shaped run — hot
// sites at the Figure 9 watermarks, floor 2, a lossy control plane and a
// crash every 30 s — and then holds every machine's store against its
// host's object table: the two are kept by different code (the store's
// bitmap and count, the table's bitmap and rank) and must name the same
// replicas.
func TestStoreMatchesObjectTable(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	gen, err := workload.NewHotSites(testUniverse, topology.UUNET().NumNodes(), 0.9, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(gen, 3)
	cfg.Universe = testUniverse
	cfg.Duration = 4 * time.Minute
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
		for i := -1; i <= testUniverse.Count+64; i++ {
			if id := object.ID(i); m.Store.Contains(id) != m.Host.Has(id) {
				t.Fatalf("machine %d, object %d: store holds it %v, host table %v", n, id, m.Store.Contains(id), m.Host.Has(id))
			}
		}
		if m.Store.Replicas() != m.Host.NumObjects() {
			t.Fatalf("machine %d: %d replicas in the store, %d in the host table", n, m.Store.Replicas(), m.Host.NumObjects())
		}
	}
}
