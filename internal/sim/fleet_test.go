package sim

import (
	"errors"
	"testing"
	"time"

	"radar/internal/object"
	"radar/internal/protocol"
	"radar/internal/routing"
	"radar/internal/topology"
	"radar/internal/workload"
)

// scriptedFleet is a socket-free fake Fleet: every object lives on its
// home node, a host is the shared node assembly (NewMachine) with its
// placement passes scripted away, each redirector records one replica per
// object of its share of the namespace,
// and from virtual time failAt one call of one node — the victim's Choose,
// Admit, Complete or Place — answers Lost. Complete is not told the time: it
// fails once another call has seen failAt. Like a live fleet, a redirector
// dies with its node, and once told a host is down the others route its
// objects to the next one. It records what the loop asked of it.
type scriptedFleet struct {
	n, objects int
	redLocs    []topology.NodeID
	victim     topology.NodeID
	failAt     time.Duration
	failCall   string        // "choose", "admit", "complete" or "place"
	seen       time.Duration // the latest time a call was made at

	machines   []*Machine
	down       []bool
	markDowns  []topology.NodeID
	censusLost int // Census calls answered Lost
}

// newScriptedFleet builds the fake's machines from cfg. Their hosts never
// run a placement pass, so the peer-facing Env is inert.
func newScriptedFleet(t *testing.T, cfg *Config, f *scriptedFleet) *scriptedFleet {
	t.Helper()
	f.n = cfg.Topo.NumNodes()
	f.objects = cfg.Universe.Count
	f.down = make([]bool, f.n)
	f.machines = make([]*Machine, f.n)
	env := protocol.Env{
		Routes:        routing.New(cfg.Topo),
		RedirectorFor: func(object.ID) protocol.RedirectorControl { return nil },
		LoadReport: func(topology.NodeID, time.Duration, object.ID) (protocol.LoadReport, bool) {
			return protocol.LoadReport{}, false
		},
		SendCreateObj: func(now time.Duration, _ protocol.CreateObjRequest, tok uint64) (protocol.CreateObjStatus, uint64, time.Duration) {
			return protocol.CreateDown, tok, now
		},
		Observer: protocol.Recorder(func(protocol.Event) {}),
	}
	for i := range f.machines {
		m, err := NewMachine(cfg, topology.NodeID(i), env)
		if err != nil {
			t.Fatal(err)
		}
		f.machines[i] = m
	}
	return f
}

func (f *scriptedFleet) fails(call string, now time.Duration, h topology.NodeID) bool {
	f.seen = max(f.seen, now)
	return f.down[h] || (call == f.failCall && h == f.victim && now >= f.failAt)
}

func (f *scriptedFleet) Choose(now time.Duration, red int, _ topology.NodeID, id object.ID) (topology.NodeID, Outcome) {
	if f.fails("choose", now, f.redLocs[red]) {
		return 0, Lost
	}
	h := topology.NodeID(int(id) % f.n)
	if f.down[h] {
		h = (h + 1) % topology.NodeID(f.n)
	}
	return h, OK
}

func (f *scriptedFleet) Admit(now time.Duration, h, _ topology.NodeID, id object.ID) (time.Duration, Outcome) {
	if f.fails("admit", now, h) {
		return 0, Lost
	}
	return f.machines[h].Admit(now, id)
}

func (f *scriptedFleet) Complete(h, g topology.NodeID, id object.ID) bool {
	if f.fails("complete", f.seen, h) {
		return false
	}
	f.machines[h].Complete(id, g)
	return true
}

func (f *scriptedFleet) Measure(now time.Duration, h topology.NodeID) (actual, lower, upper float64, ok bool) {
	actual, lower, upper = f.machines[h].Measure(now)
	return actual, lower, upper, true
}

func (f *scriptedFleet) Place(now time.Duration, h topology.NodeID) bool {
	return !f.fails("place", now, h)
}

func (f *scriptedFleet) Census(red int) (total, below int, ok bool) {
	if f.down[f.redLocs[red]] {
		f.censusLost++
		return 0, 0, false
	}
	return f.objects / len(f.redLocs), 0, true
}

func (f *scriptedFleet) MarkDown(_ time.Duration, h topology.NodeID) {
	f.down[h] = true
	f.markDowns = append(f.markDowns, h)
}

func (f *scriptedFleet) Stats(r *Results) {
	for _, m := range f.machines {
		r.TotalServed += m.Server.TotalServed()
	}
}

// TestLoopAccountsForLostNode fails one call of one node at a chosen
// virtual time and checks the loop's side of the seam: the node is marked
// down once and the fleet told once, and the crash shows in Failures and
// FaultsEnabled. When a host dies — its Admit, Complete or Place goes
// unanswered — requests fail only in the crash's own metrics bucket,
// because the fleet routes around it. When a redirector's node dies every
// later request for its share of the namespace fails, and the census goes
// on without it.
func TestLoopAccountsForLostNode(t *testing.T) {
	const (
		objects = 16
		failAt  = 2 * time.Minute
	)
	cases := []struct {
		call   string
		victim topology.NodeID // Line(4): nodes 1 and 2 host the redirectors, 3 is a leaf
	}{{"admit", 3}, {"complete", 3}, {"place", 3}, {"choose", 1}}
	for _, tc := range cases {
		t.Run(tc.call, func(t *testing.T) {
			u := object.Universe{Count: objects, SizeBytes: 4 << 10}
			gen, err := workload.NewUniform(u)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig(gen, 7)
			cfg.Topo = topology.Line(4)
			cfg.Universe = u
			cfg.NodeRequestRPS = 10
			cfg.Duration = 5 * time.Minute
			cfg.PlacementInterval = 30 * time.Second
			cfg.MetricsBucket = 30 * time.Second
			cfg.NumRedirectors = 2
			f := newScriptedFleet(t, &cfg, &scriptedFleet{victim: tc.victim, failAt: failAt, failCall: tc.call})
			s, err := NewOver(cfg, func(protocol.Recorder) (Fleet, error) { return f, nil })
			if err != nil {
				t.Fatal(err)
			}
			f.redLocs = s.redLocs
			redirectorDied := tc.victim == f.redLocs[0]
			if redirectorDied != (tc.call == "choose") {
				t.Fatalf("redirectors at %v: the cases assume node 1 hosts one and node 3 none", f.redLocs)
			}
			res, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}

			// Every response the loop delivered was admitted and completed
			// on a machine first.
			if res.TotalServed == 0 || res.TotalServed < res.Counters.Requests {
				t.Errorf("machines served %d requests, the loop delivered %d", res.TotalServed, res.Counters.Requests)
			}
			if len(f.markDowns) != 1 || f.markDowns[0] != tc.victim {
				t.Errorf("fleet told of crashes %v, want exactly [%d]", f.markDowns, tc.victim)
			}
			if res.Failures != 1 || !res.FaultsEnabled {
				t.Errorf("Failures = %d, FaultsEnabled = %v, want 1 and true", res.Failures, res.FaultsEnabled)
			}
			// A placement pass can find the node lost with nothing in flight.
			if res.FailedRequests == 0 && tc.call != "place" {
				t.Error("no request failed on the lost node")
			}
			var failed float64
			for _, p := range res.FailedSeries {
				failed += p.V
				if p.V != 0 && (p.T < failAt || (!redirectorDied && p.T >= failAt+cfg.MetricsBucket)) {
					t.Errorf("%v failed requests in the bucket at %v, outside the crash's", p.V, p.T)
				}
			}
			// The series drops the partial bucket past the horizon, which only
			// a dead redirector's steady failures reach.
			if int64(failed) > res.FailedRequests || (!redirectorDied && int64(failed) != res.FailedRequests) {
				t.Errorf("failed series sums to %v, FailedRequests = %d", failed, res.FailedRequests)
			}
			// One replica per object while both redirectors answer the
			// census, half of that once only the survivor does.
			if redirectorDied != (f.censusLost > 0) {
				t.Errorf("%d census calls went unanswered", f.censusLost)
			}
			for _, p := range res.Replicas {
				want := 1.0
				if redirectorDied && p.T > failAt {
					want = 0.5
				}
				if p.V != want {
					t.Errorf("census at %v = %v replicas per object, want %v", p.T, p.V, want)
				}
			}
		})
	}
}

// TestRunTwice: a Simulation runs once; the second call must not silently
// double-schedule every generator and tick.
func TestRunTwice(t *testing.T) {
	gen, err := workload.NewUniform(testUniverse)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(testConfig(t, gen, time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); !errors.Is(err, ErrAlreadyRan) {
		t.Fatalf("second Run returned %v, want ErrAlreadyRan", err)
	}
}

// TestNewOverRefusesInMemoryOnlySubsystems: an external fleet runs none of
// the optional subsystems, each refused with its table row.
func TestNewOverRefusesInMemoryOnlySubsystems(t *testing.T) {
	gen, err := workload.NewUniform(testUniverse)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t, gen, time.Minute)
	cfg.Shards = 4
	_, err = NewOver(cfg, func(protocol.Recorder) (Fleet, error) {
		t.Error("fleet connected despite the refusal")
		return nil, nil
	})
	if err == nil {
		t.Fatal("NewOver accepted the sharded engine")
	}
}
