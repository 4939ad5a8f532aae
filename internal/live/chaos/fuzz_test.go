package chaos

import (
	"slices"
	"testing"
	"time"

	"radar/internal/fault"
	"radar/internal/topology"
)

// FuzzChaosSchedule: any schedule string either fails to plan or yields a
// well-formed fault timeline — sorted by time, down/up strictly alternating
// per node starting from alive, down/up alternating per normalized link, no
// kinds outside the enum, a non-negative latency — and is deterministic
// (planning twice yields the identical plan).
func FuzzChaosSchedule(f *testing.F) {
	f.Add("crash:1@2s+3s")
	f.Add("link:0-1@1s+2s; cdelay:50ms")
	f.Add("mtbf:60s; mttr:5s")
	f.Add("crash:0@1s; crash:0@2s+1s")
	f.Add("drop:0.5")
	f.Add("")
	topo := topology.Star(4)
	f.Fuzz(func(t *testing.T, sched string) {
		plan := func() ([]fault.Event, time.Duration) {
			events, latency, err := Plan(sched, topo, 30*time.Second, 1)
			if err != nil {
				t.SkipNow()
			}
			return events, latency
		}
		events, latency := plan()
		again, againLatency := plan()
		if !slices.Equal(events, again) || latency != againLatency {
			t.Fatalf("plan not deterministic: %v, %v vs %v, %v", events, latency, again, againLatency)
		}
		if latency < 0 {
			t.Fatalf("negative latency %v", latency)
		}
		nodeDown := map[topology.NodeID]bool{}
		pairCut := map[[2]topology.NodeID]bool{}
		for i, e := range events {
			if i > 0 && e.At < events[i-1].At {
				t.Fatalf("plan unsorted at %d: %v after %v", i, e.At, events[i-1].At)
			}
			pair := [2]topology.NodeID{e.A, e.B}
			switch e.Kind {
			case fault.HostDown:
				if nodeDown[e.Node] {
					t.Fatalf("event %d kills node %d twice", i, e.Node)
				}
				nodeDown[e.Node] = true
			case fault.HostUp:
				if !nodeDown[e.Node] {
					t.Fatalf("event %d restarts live node %d", i, e.Node)
				}
				nodeDown[e.Node] = false
			case fault.LinkDown:
				if e.A >= e.B {
					t.Fatalf("event %d has unnormalized pair %d-%d", i, e.A, e.B)
				}
				if pairCut[pair] {
					t.Fatalf("event %d cuts %d-%d twice", i, e.A, e.B)
				}
				pairCut[pair] = true
			case fault.LinkUp:
				if !pairCut[pair] {
					t.Fatalf("event %d heals intact pair %d-%d", i, e.A, e.B)
				}
				pairCut[pair] = false
			default:
				t.Fatalf("event %d has unknown kind %d", i, e.Kind)
			}
		}
	})
}
