package chaos

import (
	"context"
	"slices"
	"sync"
	"testing"
	"time"

	"radar/internal/fault"
	"radar/internal/object"
	"radar/internal/sim"
	"radar/internal/topology"
	"radar/internal/workload"
)

// TestPlanScriptedCrash: a scripted crash clause expands to a host going
// down and coming back up at the scheduled times, with no latency.
func TestPlanScriptedCrash(t *testing.T) {
	events, latency, err := Plan("crash:1@2s+3s", topology.Star(4), 10*time.Second, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []fault.Event{
		{At: 2 * time.Second, Kind: fault.HostDown, Node: 1},
		{At: 5 * time.Second, Kind: fault.HostUp, Node: 1},
	}
	if !slices.Equal(events, want) || latency != 0 {
		t.Fatalf("got %v with latency %v, want %v with none", events, latency, want)
	}
}

// TestPlanLinkAndLatency: link clauses become down/up pairs and a cdelay
// clause becomes the plan's latency.
func TestPlanLinkAndLatency(t *testing.T) {
	events, latency, err := Plan("link:0-1@1s+2s; cdelay:50ms", topology.Star(4), 10*time.Second, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []fault.Event{
		{At: 1 * time.Second, Kind: fault.LinkDown, A: 0, B: 1},
		{At: 3 * time.Second, Kind: fault.LinkUp, A: 0, B: 1},
	}
	if !slices.Equal(events, want) || latency != 50*time.Millisecond {
		t.Fatalf("got %v with latency %v, want %v with 50ms", events, latency, want)
	}
}

// TestPlanRejectsMessageLoss: drop/dup clauses are simulation-only.
func TestPlanRejectsMessageLoss(t *testing.T) {
	for _, sched := range []string{"drop:0.5", "dup:0.2", "crash:0@1s; drop:0.1"} {
		if _, _, err := Plan(sched, topology.Star(4), 10*time.Second, 1); err == nil {
			t.Fatalf("Plan(%q) accepted a message-loss clause", sched)
		}
	}
}

// TestPlanStochasticDeterministic: equal seeds yield identical plans.
func TestPlanStochasticDeterministic(t *testing.T) {
	topo := topology.Ring(6)
	plan := func() []fault.Event {
		events, _, err := Plan("mtbf:60s; mttr:5s", topo, 5*time.Minute, 7)
		if err != nil {
			t.Fatal(err)
		}
		return events
	}
	a, b := plan(), plan()
	if len(a) == 0 {
		t.Fatal("stochastic schedule produced no events over a 5m horizon")
	}
	if !slices.Equal(a, b) {
		t.Fatalf("plans differ:\n%v\n%v", a, b)
	}
}

// TestPlanKillsWhatTheSimulatorCrashes: a stochastic schedule kills, live,
// the nodes a simulation at the same seed crashes, at the same instants —
// both expand it from the seed's fault stream. Every planned event is
// checked against the simulator's own view of the node an instant before
// and at its time.
func TestPlanKillsWhatTheSimulatorCrashes(t *testing.T) {
	const (
		schedule = "mtbf:20s; mttr:3s"
		seed     = 7
		horizon  = 30 * time.Second
	)
	plan, _, err := Plan(schedule, topology.UUNET(), horizon, seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) < 4 {
		t.Fatalf("plan %v: want crash cycles", plan)
	}
	if a := plan[0]; a.Kind != fault.HostDown || a.Node != 35 || a.At.Round(100*time.Microsecond) != 132800*time.Microsecond {
		t.Fatalf("plan opens with %v: want node 35 killed at 132.8ms", a)
	}

	spec, err := fault.ParseSchedule(schedule)
	if err != nil {
		t.Fatal(err)
	}
	u := object.Universe{Count: 106, SizeBytes: 12 << 10}
	gen, err := workload.NewUniform(u)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig(gen, seed)
	cfg.Universe, cfg.Duration, cfg.Faults = u, horizon, spec
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var kills, restarts int64
	for _, a := range plan {
		down := a.Kind == fault.HostDown
		if down {
			kills++
		} else {
			restarts++
		}
		s.At(a.At-1, func() {
			if s.Down(a.Node) == down {
				t.Errorf("%v: the simulator already has node %d in that state", a, a.Node)
			}
		})
		s.At(a.At, func() {
			if s.Down(a.Node) != down {
				t.Errorf("%v: the simulator does not", a)
			}
		})
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != kills || res.Recoveries != restarts {
		t.Errorf("simulator crashed %d and recovered %d nodes; the plan kills %d and restarts %d",
			res.Failures, res.Recoveries, kills, restarts)
	}
}

// fakeTarget records applied actions.
type fakeTarget struct {
	mu    sync.Mutex
	calls []string
}

func (f *fakeTarget) note(s string) {
	f.mu.Lock()
	f.calls = append(f.calls, s)
	f.mu.Unlock()
}
func (f *fakeTarget) Kill(n topology.NodeID) error    { f.note("kill"); return nil }
func (f *fakeTarget) Restart(n topology.NodeID) error { f.note("restart"); return nil }
func (f *fakeTarget) SetPartition(a, b topology.NodeID, cut bool) error {
	if cut {
		f.note("cut")
	} else {
		f.note("heal")
	}
	return nil
}
func (f *fakeTarget) SetLatency(d time.Duration) error { f.note("latency"); return nil }

// fakeObserver records lifecycle notifications.
type fakeObserver struct {
	mu       sync.Mutex
	kills    int
	restarts int
}

func (o *fakeObserver) OnKill(n topology.NodeID, at time.Time) {
	o.mu.Lock()
	o.kills++
	o.mu.Unlock()
}
func (o *fakeObserver) OnRestart(n topology.NodeID, at time.Time) {
	o.mu.Lock()
	o.restarts++
	o.mu.Unlock()
}

// TestControllerAppliesPlan: the controller sets the latency before it
// deals the first event, walks the plan in order, notifies the observer of
// lifecycle events, and records what applied.
func TestControllerAppliesPlan(t *testing.T) {
	tgt := &fakeTarget{}
	obs := &fakeObserver{}
	events := []fault.Event{
		{At: 5 * time.Millisecond, Kind: fault.HostDown, Node: 1},
		{At: 10 * time.Millisecond, Kind: fault.LinkDown, A: 0, B: 1},
		{At: 15 * time.Millisecond, Kind: fault.LinkUp, A: 0, B: 1},
		{At: 20 * time.Millisecond, Kind: fault.HostUp, Node: 1},
	}
	ctl := NewController(tgt, events, time.Millisecond, obs)
	if err := ctl.Run(context.Background(), time.Now()); err != nil {
		t.Fatal(err)
	}
	want := []string{"latency", "kill", "cut", "heal", "restart"}
	if !slices.Equal(tgt.calls, want) {
		t.Fatalf("calls = %v, want %v", tgt.calls, want)
	}
	if obs.kills != 1 || obs.restarts != 1 {
		t.Fatalf("observer saw %d kills, %d restarts; want 1, 1", obs.kills, obs.restarts)
	}
	if got := ctl.Applied(); !slices.Equal(got, events) {
		t.Fatalf("Applied() = %v, want %v", got, events)
	}
}

// TestControllerCancel: cancelling the context stops the run without
// applying pending events or the latency.
func TestControllerCancel(t *testing.T) {
	tgt := &fakeTarget{}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ctl := NewController(tgt, []fault.Event{{At: time.Hour, Kind: fault.HostDown, Node: 0}}, time.Millisecond, nil)
	if err := ctl.Run(ctx, time.Now()); err != nil {
		t.Fatal(err)
	}
	if len(tgt.calls) != 0 {
		t.Fatalf("cancelled run applied %v", tgt.calls)
	}
}
