package live_test

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"radar/internal/ctrlplane"
	"radar/internal/live"
	"radar/internal/live/check"
	"radar/internal/object"
	"radar/internal/topology"
)

// freeRunConfig compresses a scenario to wall-clock scale: sub-second
// self-scheduled ticks and a fast RPC retry schedule, so a free-running
// integration test finishes in seconds.
func freeRunConfig(t *testing.T, topo *topology.Topology, wall time.Duration) live.Config {
	t.Helper()
	cfg := liveConfig(t, topo, 16, 20, wall)
	cfg.Sim.Protocol.ReplicaFloor = 2
	cfg.FreeRunning = true
	cfg.FreeRun = live.FreeRun{
		Measurement: 200 * time.Millisecond,
		Placement:   400 * time.Millisecond,
	}
	cfg.Sim.Ctrl = ctrlplane.Params{
		Timeout:     time.Second,
		Retries:     3,
		BackoffBase: 20 * time.Millisecond,
		BackoffCap:  100 * time.Millisecond,
	}
	return cfg
}

// startFree starts a free-running Star(4) test harness for wall.
func startFree(t *testing.T, wall time.Duration) *live.Harness {
	return startHarness(t, freeRunConfig(t, topology.Star(4), wall))
}

// runFree is check.RunFree for tests: it fails the test on an error, on any
// invariant violation, on fewer than ten scrapes, or on a run that served
// nothing.
func runFree(t *testing.T, h *live.Harness, schedule string, convergence time.Duration) *check.Outcome {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), h.Free.Config().Sim.Duration+time.Minute)
	defer cancel()
	out, err := check.RunFree(ctx, h, schedule, convergence)
	if err != nil {
		t.Fatalf("free run: %v", err)
	}
	if !out.Report.OK() {
		t.Fatalf("invariant violations:\n%s", out.Report)
	}
	if out.Report.Scrapes < 10 {
		t.Fatalf("checker only scraped %d times", out.Report.Scrapes)
	}
	if out.Results.TotalServed == 0 {
		t.Fatal("no requests served")
	}
	return out
}

// TestFreeRunningServes: a free-running fleet with no chaos serves load on
// its own clock — tickers advance, requests succeed, and the invariant
// checker stays silent.
func TestFreeRunningServes(t *testing.T) {
	// 5 s is some 20 scrapes at the checker's 250 ms: a margin over
	// runFree's ten for ticks a slow scrape drops.
	h := startFree(t, 5*time.Second)
	out := runFree(t, h, "", 2*time.Second)
	if out.Results.FailedRequests != 0 {
		t.Fatalf("%d failed requests on a healthy fleet", out.Results.FailedRequests)
	}
	for i := range h.URLs {
		st := nodeStats(t, h.Fleet.URL(topology.NodeID(i)))
		if st.MeasureTicks == 0 {
			t.Errorf("node %d never ran a measurement tick", i)
		}
		if st.PlaceTicks == 0 {
			t.Errorf("node %d never ran a placement tick", i)
		}
	}
	// Nobody reports completions to a free-running node: it settles its
	// own, and a stats scrape sees every served request recorded once the
	// last ones' few milliseconds of service are over on the node's clock.
	recorded := func() (n int64) {
		for i := range h.URLs {
			n += nodeStats(t, h.Fleet.URL(topology.NodeID(i))).TotalServed
		}
		return n
	}
	served := out.Results.TotalServed
	for deadline := time.Now().Add(2 * time.Second); recorded() != served && time.Now().Before(deadline); {
		time.Sleep(20 * time.Millisecond)
	}
	if got := recorded(); got != served {
		t.Errorf("nodes recorded %d completions of %d served requests", got, served)
	}
}

// TestChaosKillRestartInvariants is the headline free-running test: a
// scheduled chaos plan SIGKILLs a leaf node mid-run and restarts it, the
// fleet keeps serving on its own clocks, and the invariant checker
// reports zero violations — the floor is repaired, no object is lost,
// counters stay monotone per boot, and every failed request falls inside
// the crash window.
func TestChaosKillRestartInvariants(t *testing.T) {
	const victim = topology.NodeID(3) // Star(4) leaf; node 0 is the redirector
	h := startFree(t, 9*time.Second)
	bootBefore := nodeStats(t, h.Fleet.URL(victim)).BootID
	// The same DSL clause the simulator takes: kill node 3 at T+2s,
	// restart it 2s later.
	out := runFree(t, h, "crash:3@2s+2s", 3*time.Second)
	if got := len(out.Applied); got != 2 {
		t.Fatalf("chaos applied %d events %v, want kill+restart", got, out.Applied)
	}
	// The victim came back as a fresh incarnation and is serving again.
	if h.Fleet.Killed(victim) {
		t.Fatal("victim still marked killed after its scheduled restart")
	}
	st := nodeStats(t, h.Fleet.URL(victim))
	if st.BootID == bootBefore {
		t.Fatalf("victim's boot ID %d unchanged across kill+restart", st.BootID)
	}
	if st.MeasureTicks == 0 {
		t.Fatal("restarted victim never ticked")
	}
}

// TestChaosPartitionHeals: cutting the control plane between the hub and
// a leaf (poisoned peer tables, both directions) and healing it leaves no
// lasting damage: the checker stays silent and requests keep being
// served. Partitions cut control RPCs only — the data plane (client 302s)
// is deliberately untouched.
func TestChaosPartitionHeals(t *testing.T) {
	h := startFree(t, 4*time.Second)
	out := runFree(t, h, "link:0-2@1s+1500ms", 2*time.Second)
	if got := len(out.Applied); got != 2 {
		t.Fatalf("chaos applied %d events %v, want cut+heal", got, out.Applied)
	}
	for i := range h.URLs {
		if h.Fleet.Killed(topology.NodeID(i)) {
			t.Fatalf("node %d died during a control-plane partition", i)
		}
	}
}

// constGen is a workload that requests one object from every gateway.
type constGen object.ID

func (c constGen) Name() string                               { return "const" }
func (c constGen) Next(topology.NodeID, *rand.Rand) object.ID { return object.ID(c) }

// TestFreeDriverSwitchesWorkload: virtual time is wall time in free-running
// mode, so WorkloadSwitch.At after the run's start every gateway draws from
// the second generator. The fleet is a stub that records, per gateway, the
// object ids it was asked for.
func TestFreeDriverSwitchesWorkload(t *testing.T) {
	const wall, at = 600 * time.Millisecond, 250 * time.Millisecond
	topo := topology.Star(4)
	var mu sync.Mutex
	asked := make([][]string, topo.NumNodes())
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		g, _ := strconv.Atoi(r.URL.Query().Get("g"))
		mu.Lock()
		asked[g] = append(asked[g], strings.TrimPrefix(r.URL.Path, live.PathObj))
		mu.Unlock()
	}))
	defer srv.Close()

	cfg := freeRunConfig(t, topo, wall)
	cfg.Sim.NodeRequestRPS = 50
	cfg.Sim.Workload = constGen(1)
	cfg.Sim.WorkloadSwitch.At = at
	cfg.Sim.WorkloadSwitch.To = constGen(2)
	urls := make([]string, topo.NumNodes())
	for i := range urls {
		urls[i] = srv.URL
	}
	d, err := live.NewFreeDriver(cfg, urls)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// A gateway's requests are sequential, so its ids arrive in the order
	// it drew them: object 1 up to the switch, object 2 from then on.
	for g, ids := range asked {
		got := strings.Join(slices.Compact(ids), ",")
		if got != "1,2" {
			t.Errorf("gateway %d asked for objects %s over %d requests, want 1 then 2", g, got, len(ids))
		}
	}
}
