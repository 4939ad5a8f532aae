package chaos

import (
	"context"
	"sync"
	"testing"
	"time"

	"radar/internal/fault"
	"radar/internal/object"
	"radar/internal/sim"
	"radar/internal/topology"
	"radar/internal/workload"
)

// TestPlanScriptedCrash: a scripted crash clause expands to a kill and a
// restart at the scheduled times.
func TestPlanScriptedCrash(t *testing.T) {
	actions, err := Plan("crash:1@2s+3s", topology.Star(4), 10*time.Second, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []Action{
		{At: 2 * time.Second, Kind: Kill, Node: 1},
		{At: 5 * time.Second, Kind: Restart, Node: 1},
	}
	if len(actions) != len(want) {
		t.Fatalf("got %d actions %v, want %d", len(actions), actions, len(want))
	}
	for i := range want {
		if actions[i] != want[i] {
			t.Fatalf("action %d = %v, want %v", i, actions[i], want[i])
		}
	}
}

// TestPlanLinkAndLatency: link clauses become cut/heal pairs and a cdelay
// clause becomes an upfront latency action.
func TestPlanLinkAndLatency(t *testing.T) {
	actions, err := Plan("link:0-1@1s+2s; cdelay:50ms", topology.Star(4), 10*time.Second, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []Action{
		{At: 0, Kind: Latency, Delay: 50 * time.Millisecond},
		{At: 1 * time.Second, Kind: Cut, A: 0, B: 1},
		{At: 3 * time.Second, Kind: Heal, A: 0, B: 1},
	}
	if len(actions) != len(want) {
		t.Fatalf("got %v, want %v", actions, want)
	}
	for i := range want {
		if actions[i] != want[i] {
			t.Fatalf("action %d = %v, want %v", i, actions[i], want[i])
		}
	}
}

// TestPlanRejectsMessageLoss: drop/dup clauses are simulation-only.
func TestPlanRejectsMessageLoss(t *testing.T) {
	for _, sched := range []string{"drop:0.5", "dup:0.2", "crash:0@1s; drop:0.1"} {
		if _, err := Plan(sched, topology.Star(4), 10*time.Second, 1); err == nil {
			t.Fatalf("Plan(%q) accepted a message-loss clause", sched)
		}
	}
}

// TestPlanStochasticDeterministic: equal seeds yield identical plans.
func TestPlanStochasticDeterministic(t *testing.T) {
	topo := topology.Ring(6)
	plan := func() []Action {
		a, err := Plan("mtbf:60s; mttr:5s", topo, 5*time.Minute, 7)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	a, b := plan(), plan()
	if len(a) == 0 {
		t.Fatal("stochastic schedule produced no actions over a 5m horizon")
	}
	if len(a) != len(b) {
		t.Fatalf("plans differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("plans diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestPlanKillsWhatTheSimulatorCrashes: a stochastic schedule kills, live,
// the nodes a simulation at the same seed crashes, at the same instants —
// both expand it from the seed's fault stream. Every planned action is
// checked against the simulator's own view of the node an instant before
// and at its time.
func TestPlanKillsWhatTheSimulatorCrashes(t *testing.T) {
	const (
		schedule = "mtbf:20s; mttr:3s"
		seed     = 7
		horizon  = 30 * time.Second
	)
	plan, err := Plan(schedule, topology.UUNET(), horizon, seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) < 4 {
		t.Fatalf("plan %v: want crash cycles", plan)
	}
	if a := plan[0]; a.Kind != Kill || a.Node != 35 || a.At.Round(100*time.Microsecond) != 132800*time.Microsecond {
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
		down := a.Kind == Kill
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

// TestControllerAppliesPlan: the controller walks the plan in order,
// notifies the observer of lifecycle actions, and records what applied.
func TestControllerAppliesPlan(t *testing.T) {
	tgt := &fakeTarget{}
	obs := &fakeObserver{}
	actions := []Action{
		{At: 0, Kind: Latency, Delay: time.Millisecond},
		{At: 5 * time.Millisecond, Kind: Kill, Node: 1},
		{At: 10 * time.Millisecond, Kind: Cut, A: 0, B: 1},
		{At: 15 * time.Millisecond, Kind: Heal, A: 0, B: 1},
		{At: 20 * time.Millisecond, Kind: Restart, Node: 1},
	}
	ctl := NewController(tgt, actions, obs)
	if err := ctl.Run(context.Background(), time.Now()); err != nil {
		t.Fatal(err)
	}
	want := []string{"latency", "kill", "cut", "heal", "restart"}
	if len(tgt.calls) != len(want) {
		t.Fatalf("calls = %v, want %v", tgt.calls, want)
	}
	for i := range want {
		if tgt.calls[i] != want[i] {
			t.Fatalf("call %d = %s, want %s", i, tgt.calls[i], want[i])
		}
	}
	if obs.kills != 1 || obs.restarts != 1 {
		t.Fatalf("observer saw %d kills, %d restarts; want 1, 1", obs.kills, obs.restarts)
	}
	if got := ctl.Applied(); len(got) != len(actions) {
		t.Fatalf("Applied() = %d actions, want %d", len(got), len(actions))
	}
}

// TestControllerCancel: cancelling the context stops the run without
// applying pending actions.
func TestControllerCancel(t *testing.T) {
	tgt := &fakeTarget{}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ctl := NewController(tgt, []Action{{At: time.Hour, Kind: Kill, Node: 0}}, nil)
	if err := ctl.Run(ctx, time.Now()); err != nil {
		t.Fatal(err)
	}
	if len(tgt.calls) != 0 {
		t.Fatalf("cancelled run applied %v", tgt.calls)
	}
}
