package live

import (
	"testing"
	"time"

	"radar/internal/object"
	"radar/internal/sim"
	"radar/internal/topology"
	"radar/internal/workload"
)

// TestCompletionFIFO: a free-running node settles its own completions
// whenever its lock is taken — in admission order, only those whose done
// time its clock has reached, and none after Stop. The test moves the
// node's epoch instead of sleeping.
func TestCompletionFIFO(t *testing.T) {
	u := object.Universe{Count: 8, SizeBytes: 1 << 10}
	gen, err := workload.NewHotPages(u, 0.1, 0.9, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Sim: sim.DefaultConfig(gen, 7), FreeRunning: true}
	cfg.Sim.Topo, cfg.Sim.Universe = topology.Line(2), u
	nd, err := NewNode(cfg, 0, []string{"http://node0.invalid", "http://node1.invalid"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	served := func(lock func()) int64 {
		lock()
		defer nd.mu.Unlock()
		return nd.machine.Server.TotalServed()
	}

	nd.epoch = time.Now().Add(-10 * time.Second) // the node's clock reads 10 s
	for i, done := range []time.Duration{time.Second, 5 * time.Second, 5 * time.Second, time.Hour, 2 * time.Hour} {
		nd.pending = append(nd.pending, completion{done: done, id: object.ID(i)})
	}
	if got := served(nd.lock); got != 3 {
		t.Fatalf("served %d at 10 s, want the 3 due", got)
	}
	if rest := nd.pending[nd.head:]; len(rest) != 2 || rest[0].id != 3 || rest[1].id != 4 {
		t.Fatalf("pending after the due prefix = %+v, want objects 3, 4 in admission order", rest)
	}

	// The peer handlers' try-lock settles too.
	nd.epoch = nd.epoch.Add(-time.Hour)
	if got := served(func() { _ = nd.lockMu() }); got != 4 {
		t.Fatalf("served %d an hour on, want 4", got)
	}

	nd.Stop()
	nd.epoch = nd.epoch.Add(-time.Hour)
	if got := served(nd.lock); got != 4 {
		t.Fatalf("served %d after Stop, want the 4 from before it", got)
	}
}
