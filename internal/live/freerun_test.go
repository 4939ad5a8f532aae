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
	"radar/internal/live/chaos"
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
		Census:      400 * time.Millisecond,
	}
	cfg.RPC = ctrlplane.Params{
		Timeout:     time.Second,
		Retries:     3,
		BackoffBase: 20 * time.Millisecond,
		BackoffCap:  100 * time.Millisecond,
	}
	return cfg
}

// awaitFloorConverged waits for the fleet's self-scheduled placement
// passes to finish the initial floor repair. Invariant checking starts
// from this converged state: the checker judges steady-state maintenance,
// not the boot transient — which under -race can legitimately outlast any
// reasonable convergence budget.
func awaitFloorConverged(t *testing.T, h *live.Harness, timeout time.Duration) {
	t.Helper()
	locs := live.RedirectorLocations(h.Fleet.Routes(), h.Fleet.Config().Sim.NumRedirectors)
	if err := check.AwaitFloor(context.Background(), h.Fleet.URLs(), locs, timeout); err != nil {
		t.Fatal(err)
	}
}

// startChecker wires an invariant checker to the harness fleet and starts
// its scrape loop; the returned stop function halts scraping.
func startChecker(h *live.Harness, interval, convergence time.Duration) (*check.Checker, func()) {
	cfg := h.Fleet.Config()
	checker := check.New(check.Config{
		URLs:        h.Fleet.URLs(),
		Redirectors: live.RedirectorLocations(h.Fleet.Routes(), cfg.Sim.NumRedirectors),
		Interval:    interval,
		Convergence: convergence,
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		checker.Run(ctx)
	}()
	return checker, func() { cancel(); <-done }
}

// TestFreeRunningServes: a free-running fleet with no chaos serves load on
// its own clock — tickers advance, requests succeed, and the invariant
// checker stays silent.
func TestFreeRunningServes(t *testing.T) {
	const wall = 3 * time.Second
	cfg := freeRunConfig(t, topology.Star(4), wall)
	h := startHarness(t, cfg)
	awaitFloorConverged(t, h, 30*time.Second)
	checker, stopCheck := startChecker(h, 100*time.Millisecond, 2*time.Second)

	if err := h.Free.Run(context.Background(), wall); err != nil {
		t.Fatalf("free run: %v", err)
	}
	stopCheck()
	checker.CheckFailures(h.Free.Failures())

	if rep := checker.Report(); !rep.OK() {
		t.Fatalf("invariant violations on a healthy fleet:\n%s", rep)
	} else if rep.Scrapes == 0 {
		t.Fatal("checker never scraped")
	}
	if h.Free.Served() == 0 {
		t.Fatal("no requests served")
	}
	if h.Free.Failed() != 0 {
		t.Fatalf("%d failed requests on a healthy fleet", h.Free.Failed())
	}
	for i := 0; i < h.Fleet.NumNodes(); i++ {
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
		for i := 0; i < h.Fleet.NumNodes(); i++ {
			n += nodeStats(t, h.Fleet.URL(topology.NodeID(i))).TotalServed
		}
		return n
	}
	for deadline := time.Now().Add(2 * time.Second); recorded() != h.Free.Served() && time.Now().Before(deadline); {
		time.Sleep(20 * time.Millisecond)
	}
	if got := recorded(); got != h.Free.Served() {
		t.Errorf("nodes recorded %d completions of %d served requests", got, h.Free.Served())
	}
}

// TestChaosKillRestartInvariants is the headline free-running test: a
// scheduled chaos plan SIGKILLs a leaf node mid-run and restarts it, the
// fleet keeps serving on its own clocks, and the invariant checker
// reports zero violations — the floor is repaired, no object is lost,
// counters stay monotone per boot, and every failed request falls inside
// the crash window.
func TestChaosKillRestartInvariants(t *testing.T) {
	const (
		wall        = 9 * time.Second
		convergence = 3 * time.Second
		victim      = topology.NodeID(3) // Star(4) leaf; node 0 is the redirector
	)
	cfg := freeRunConfig(t, topology.Star(4), wall)
	h := startHarness(t, cfg)
	awaitFloorConverged(t, h, 30*time.Second)
	checker, stopCheck := startChecker(h, 100*time.Millisecond, convergence)

	// The same DSL clause the simulator takes: kill node 3 at T+2s,
	// restart it 2s later.
	plan, err := chaos.Plan("crash:3@2s+2s", h.Fleet.Config().Sim.Topo, wall, nil)
	if err != nil {
		t.Fatalf("planning chaos: %v", err)
	}
	target := chaos.NewFleetTarget(h.Fleet, h.Free.SetLatency)
	defer target.Close()
	ctl := chaos.NewController(target, plan, checker)

	bootBefore := nodeStats(t, h.Fleet.URL(victim)).BootID

	ctx, cancel := context.WithTimeout(context.Background(), wall+30*time.Second)
	defer cancel()
	chaosDone := make(chan error, 1)
	go func() { chaosDone <- ctl.Run(ctx, time.Now()) }()

	if err := h.Free.Run(ctx, wall); err != nil {
		t.Fatalf("free run: %v", err)
	}
	if err := <-chaosDone; err != nil {
		t.Fatalf("chaos controller: %v", err)
	}
	stopCheck()
	checker.CheckFailures(h.Free.Failures())

	if got := len(ctl.Applied()); got != 2 {
		t.Fatalf("chaos applied %d actions %v, want kill+restart", got, ctl.Applied())
	}
	if rep := checker.Report(); !rep.OK() {
		t.Fatalf("invariant violations:\n%s", rep)
	} else if rep.Scrapes < 10 {
		t.Fatalf("checker only scraped %d times over %v", rep.Scrapes, wall)
	}
	if h.Free.Served() == 0 {
		t.Fatal("no requests served")
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
	const wall = 4 * time.Second
	cfg := freeRunConfig(t, topology.Star(4), wall)
	h := startHarness(t, cfg)
	awaitFloorConverged(t, h, 30*time.Second)
	checker, stopCheck := startChecker(h, 100*time.Millisecond, 2*time.Second)

	plan, err := chaos.Plan("link:0-2@1s+1500ms", h.Fleet.Config().Sim.Topo, wall, nil)
	if err != nil {
		t.Fatalf("planning chaos: %v", err)
	}
	target := chaos.NewFleetTarget(h.Fleet, h.Free.SetLatency)
	defer target.Close()
	ctl := chaos.NewController(target, plan, checker)

	ctx, cancel := context.WithTimeout(context.Background(), wall+30*time.Second)
	defer cancel()
	chaosDone := make(chan error, 1)
	go func() { chaosDone <- ctl.Run(ctx, time.Now()) }()
	if err := h.Free.Run(ctx, wall); err != nil {
		t.Fatalf("free run: %v", err)
	}
	if err := <-chaosDone; err != nil {
		t.Fatalf("chaos controller: %v", err)
	}
	stopCheck()
	checker.CheckFailures(h.Free.Failures())

	if rep := checker.Report(); !rep.OK() {
		t.Fatalf("invariant violations after partition+heal:\n%s", rep)
	}
	if h.Free.Served() == 0 {
		t.Fatal("no requests served")
	}
	// Both sides survived the partition with RPCs refused at the client;
	// at least one should have recorded unreachable-peer fast-failures if
	// any control traffic crossed the cut, and none may have crashed.
	for i := 0; i < h.Fleet.NumNodes(); i++ {
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
	if err := d.Run(context.Background(), wall); err != nil {
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
