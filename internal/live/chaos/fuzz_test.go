package chaos

import (
	"testing"
	"time"

	"radar/internal/topology"
)

// FuzzChaosSchedule: any schedule string either fails to plan or yields a
// well-formed action sequence — sorted by time, kill/restart strictly
// alternating per node starting from alive, cut/heal alternating per
// pair, no action kinds outside the enum, and deterministic (planning
// twice yields the identical sequence).
func FuzzChaosSchedule(f *testing.F) {
	f.Add("crash:1@2s+3s")
	f.Add("link:0-1@1s+2s; cdelay:50ms")
	f.Add("mtbf:60s; mttr:5s")
	f.Add("crash:0@1s; crash:0@2s+1s")
	f.Add("drop:0.5")
	f.Add("")
	topo := topology.Star(4)
	f.Fuzz(func(t *testing.T, sched string) {
		plan := func() []Action {
			a, err := Plan(sched, topo, 30*time.Second, 1)
			if err != nil {
				t.SkipNow()
			}
			return a
		}
		actions := plan()
		again := plan()
		if len(actions) != len(again) {
			t.Fatalf("plan not deterministic: %d vs %d actions", len(actions), len(again))
		}
		nodeDown := map[topology.NodeID]bool{}
		pairCut := map[[2]topology.NodeID]bool{}
		for i, a := range actions {
			if a != again[i] {
				t.Fatalf("plan not deterministic at %d: %v vs %v", i, a, again[i])
			}
			if i > 0 && a.At < actions[i-1].At {
				t.Fatalf("plan unsorted at %d: %v after %v", i, a.At, actions[i-1].At)
			}
			switch a.Kind {
			case Kill:
				if nodeDown[a.Node] {
					t.Fatalf("action %d kills node %d twice", i, a.Node)
				}
				nodeDown[a.Node] = true
			case Restart:
				if !nodeDown[a.Node] {
					t.Fatalf("action %d restarts live node %d", i, a.Node)
				}
				nodeDown[a.Node] = false
			case Cut:
				if a.A >= a.B {
					t.Fatalf("action %d has unnormalized pair %d-%d", i, a.A, a.B)
				}
				if pairCut[[2]topology.NodeID{a.A, a.B}] {
					t.Fatalf("action %d cuts %d-%d twice", i, a.A, a.B)
				}
				pairCut[[2]topology.NodeID{a.A, a.B}] = true
			case Heal:
				if !pairCut[[2]topology.NodeID{a.A, a.B}] {
					t.Fatalf("action %d heals intact pair %d-%d", i, a.A, a.B)
				}
				pairCut[[2]topology.NodeID{a.A, a.B}] = false
			case Latency:
				if a.Delay < 0 {
					t.Fatalf("action %d has negative latency %v", i, a.Delay)
				}
			default:
				t.Fatalf("action %d has unknown kind %d", i, a.Kind)
			}
		}
	})
}
