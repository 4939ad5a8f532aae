package check

import (
	"context"
	"slices"
	"sync"
	"testing"
	"time"

	"radar/internal/ctrlplane"
	"radar/internal/live"
	"radar/internal/object"
	"radar/internal/sim"
	"radar/internal/substrate"
	"radar/internal/topology"
	"radar/internal/workload"
)

// startFree starts a free-running loopback fleet on topo for wall, its
// ticks and RPC retries compressed to wall-clock scale, and tears it down
// with the test.
func startFree(t *testing.T, topo *topology.Topology, wall time.Duration) *live.Harness {
	t.Helper()
	u := object.Universe{Count: 16, SizeBytes: 4 << 10}
	gen, err := workload.NewHotPages(u, 0.1, 0.9, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig(gen, 7)
	cfg.Topo, cfg.Universe, cfg.NodeRequestRPS, cfg.Duration = topo, u, 20, wall
	cfg.Ctrl = ctrlplane.Params{
		Timeout:     time.Second,
		Retries:     3,
		BackoffBase: 20 * time.Millisecond,
		BackoffCap:  100 * time.Millisecond,
	}
	h, err := live.NewHarness(live.Config{
		Sim:         cfg,
		FreeRunning: true,
		FreeRun:     live.FreeRun{Measurement: 200 * time.Millisecond, Placement: 400 * time.Millisecond},
	})
	if err != nil {
		t.Fatalf("starting fleet: %v", err)
	}
	t.Cleanup(h.Close)
	return h
}

// TestFreeDriverFailuresFeedTheChecker: with its only redirector killed, a
// Line(3) fleet fails every request. The free driver counts and stamps each
// failure inside the run, and the checker flags the stamps as one
// failure-confinement violation unless a crash window covers them.
func TestFreeDriverFailuresFeedTheChecker(t *testing.T) {
	const redirector = topology.NodeID(1)
	h := startFree(t, topology.Line(3), 500*time.Millisecond)
	cfg := h.Free.Config()
	locs := sim.RedirectorLocs(&cfg.Sim, substrate.Shared(cfg.Sim.Topo).Routes)
	if !slices.Equal(locs, []topology.NodeID{redirector}) {
		t.Fatalf("redirectors %v, want only node %d", locs, redirector)
	}
	if err := h.Fleet.Kill(redirector); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := h.Free.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	end := time.Now()

	failures := h.Free.Failures()
	if got := h.Free.Results(0).FailedRequests; got != int64(len(failures)) || got == 0 {
		t.Fatalf("%d failed requests with %d stamps, want equal and non-zero", got, len(failures))
	}
	for _, at := range failures {
		if at.Before(start) || at.After(end) {
			t.Fatalf("failure stamped %v, outside the run [%v, %v]", at, start, end)
		}
	}

	c := newChecker(h.URLs, locs, 40*time.Millisecond)
	c.checkFailures(failures)
	if rep := c.Report(); len(rep.Violations) != 1 || rep.Violations[0].Rule != RuleFailures {
		t.Fatalf("failures outside any crash window: %s, want one %s violation", rep, RuleFailures)
	}
	c = newChecker(h.URLs, locs, 40*time.Millisecond)
	c.OnKill(redirector, start)
	c.checkFailures(failures)
	if rep := c.Report(); !rep.OK() {
		t.Fatalf("failures inside the redirector's crash window: %s", rep)
	}
}

// TestChaosClientDelay: a cdelay clause holds every request back before it
// is issued. A gateway's requests are sequential, so in a run of T no
// gateway issues more than T/delay + 2 of them (the first may race the
// controller's latency setting); the same run without the clause issues
// more. Both runs share the wall clock.
func TestChaosClientDelay(t *testing.T) {
	const wall, delay = time.Second, 200 * time.Millisecond
	topo := topology.Star(3)
	schedules := []string{"cdelay:" + delay.String(), ""}
	harnesses := []*live.Harness{startFree(t, topo, wall), startFree(t, topo, wall)}
	issued := make([]int64, len(schedules))
	errs := make([]error, len(schedules))
	var wg sync.WaitGroup
	for i, h := range harnesses {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := RunFree(context.Background(), h, schedules[i], time.Second)
			if err != nil {
				errs[i] = err
				return
			}
			if !out.Report.OK() {
				t.Errorf("%q: invariant violations:\n%s", schedules[i], out.Report)
			}
			res := out.Results
			issued[i] = res.TotalServed + res.FailedRequests + res.TimedOutRequests
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%q: %v", schedules[i], err)
		}
	}
	limit := int64(topo.NumNodes()) * int64(wall/delay+2)
	t.Logf("%d requests issued with the delay (at most %d), %d without", issued[0], limit, issued[1])
	if issued[0] > limit {
		t.Errorf("%d requests issued under %v client delay, want at most %d", issued[0], delay, limit)
	}
	if issued[1] <= issued[0] {
		t.Errorf("%d requests issued without client delay, want more than the %d with it", issued[1], issued[0])
	}
}
