package protocol

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"radar/internal/object"
	"radar/internal/topology"
	"radar/internal/workload"
)

// traceObserver writes every placement event into one sequence.
type traceObserver struct{ trace *[]string }

func (o traceObserver) OnMigrate(now time.Duration, id object.ID, from, to topology.NodeID, kind MoveKind) {
	*o.trace = append(*o.trace, fmt.Sprintf("%v migrate %d %d->%d %v", now, id, from, to, kind))
}

func (o traceObserver) OnReplicate(now time.Duration, id object.ID, from, to topology.NodeID, kind MoveKind) {
	*o.trace = append(*o.trace, fmt.Sprintf("%v replicate %d %d->%d %v", now, id, from, to, kind))
}

func (o traceObserver) OnDrop(now time.Duration, id object.ID, host topology.NodeID) {
	*o.trace = append(*o.trace, fmt.Sprintf("%v drop %d at %d", now, id, host))
}

func (o traceObserver) OnRefuse(now time.Duration, id object.ID, from, to topology.NodeID, m Method) {
	*o.trace = append(*o.trace, fmt.Sprintf("%v refuse %d %d->%d %v", now, id, from, to, m))
}

func (o traceObserver) OnDefer(now time.Duration, id object.ID, from, to topology.NodeID, m Method) {
	*o.trace = append(*o.trace, fmt.Sprintf("%v defer %d %d->%d %v", now, id, from, to, m))
}

// settleCoverage counts the situations settleScript runs went through, so
// the test can insist that its seeds reach the ones settle exists for.
type settleCoverage struct {
	accepted, refused, reacquired int
	fullLogs                      int // OnRequest calls that found the log at capacity
	staleAtCreate                 int // accepted creates of an ID with requests still in the log
	staleAtCrash                  int // crashes with requests still in the log
	staleAtSeed                   int // SeedObject of an ID with requests still in the log
}

// settleScript drives a fresh fleet with the operation sequence seed
// selects and returns everything an observer of the fleet could tell:
// every pass's summary, every CreateObj verdict and every placement event
// in order, then each host's counters and per-object state after a final
// settle. The script depends on the seed alone, never on the fleet's
// state, so two fleets given one seed are asked exactly the same things.
// An eager fleet settles after every request — the unbatched accounting.
// cov accumulates what the run went through.
func settleScript(t *testing.T, seed int64, eager bool, cov *settleCoverage) []string {
	t.Helper()
	rng := workload.Stream(seed, 0)
	n := 3 + rng.Intn(7)
	params := DefaultParams()
	c := newCluster(t, topology.Ring(n), params)
	var trace []string
	for _, h := range c.hosts {
		h.env.Observer = traceObserver{&trace}
	}
	const universe = 10
	for i := 0; i < universe; i++ {
		c.seed(object.ID(i), topology.NodeID(i%n))
	}
	held := make(map[[2]int]bool) // (host, object) pairs that held a replica at some point
	noteHeld := func() {
		for hi, h := range c.hosts {
			for _, id := range h.Objects() {
				held[[2]int{hi, int(id)}] = true
			}
		}
	}
	noteHeld()
	now := time.Duration(0)
	for op := 0; op < 400; op++ {
		now += time.Duration(1+rng.Intn(20)) * time.Second
		hi := rng.Intn(n)
		h := c.hosts[hi]
		switch k := rng.Intn(20); {
		case k < 9: // a burst from one gateway; some cross the log's capacity
			id, g := object.ID(rng.Intn(universe)), topology.NodeID(rng.Intn(n))
			for burst := 1 + rng.Intn(3*reqLogCap); burst > 0; burst-- {
				if len(h.reqLog) == reqLogCap {
					cov.fullLogs++
				}
				h.OnRequest(id, g)
				if eager {
					h.settle()
				}
			}
		case k < 13:
			sum := h.DecidePlacement(now)
			trace = append(trace, fmt.Sprintf("%v place %d: %+v", now, hi, sum))
			noteHeld()
		case k < 16: // a peer asks h to take a copy
			id := object.ID(rng.Intn(universe))
			method := Method(1 + rng.Intn(2))
			from := topology.NodeID(rng.Intn(n))
			stale := slices.ContainsFunc(h.reqLog, func(r loggedReq) bool { return object.ID(r.id) == id })
			had := h.Has(id)
			ok := h.CreateObj(now, method, id, rng.Float64(), 1, from)
			trace = append(trace, fmt.Sprintf("%v create %v %d at %d: %v", now, method, id, hi, ok))
			switch {
			case !ok:
				cov.refused++
			case !had && held[[2]int{hi, int(id)}]:
				cov.reacquired++
				fallthrough
			default:
				cov.accepted++
				if !had && stale {
					cov.staleAtCreate++
				}
			}
			noteHeld()
		case k < 17:
			if len(h.reqLog) > 0 {
				cov.staleAtCrash++
			}
			h.OnCrash()
			h.OnRecover(now)
		case k < 18: // swing the measured load across both watermarks
			c.loads[hi].total = []float64{0, params.LowWatermark / 2, params.HighWatermark * 1.5}[rng.Intn(3)]
			c.loads[hi].perObj[object.ID(rng.Intn(universe))] = 5 * rng.Float64()
		case k < 19:
			h.OnMeasurementIntervalClose(now - time.Second)
		default: // an operator installs a copy by hand
			id := object.ID(rng.Intn(universe))
			if !h.Has(id) && slices.ContainsFunc(h.reqLog, func(r loggedReq) bool { return object.ID(r.id) == id }) {
				cov.staleAtSeed++
			}
			c.seed(id, topology.NodeID(hi))
			noteHeld()
		}
	}
	for hi, h := range c.hosts {
		h.settle()
		trace = append(trace, fmt.Sprintf("host %d stats %+v", hi, h.Stats))
		for _, id := range h.Objects() {
			trace = append(trace, fmt.Sprintf("host %d object %d: %+v", hi, id, *h.objs.get(id)))
		}
	}
	for _, id := range c.red.Objects() {
		trace = append(trace, fmt.Sprintf("object %d replicas %+v", id, c.red.Replicas(id)))
	}
	return trace
}

// TestSettleEquivalence is the oracle for "exact at every read": a fleet
// whose hosts batch their request accounting and one that settles after
// every request must be indistinguishable — same pass summaries, CreateObj
// verdicts, event sequence and final counts — under interleavings of
// request bursts longer than the log, placement passes, peer CreateObj
// (accepted, refused, re-acquiring a dropped object), hand-seeded copies,
// crashes and recoveries. Taking h.settle() out of DecidePlacement,
// CreateObj, SeedObject or OnCrash fails it.
func TestSettleEquivalence(t *testing.T) {
	var total settleCoverage
	for seed := int64(1); seed <= 12; seed++ {
		want := settleScript(t, seed, true, new(settleCoverage))
		got := settleScript(t, seed, false, &total)
		for i := 0; i < max(len(got), len(want)); i++ {
			g, w := "(nothing)", "(nothing)"
			if i < len(got) {
				g = got[i]
			}
			if i < len(want) {
				w = want[i]
			}
			if g != w {
				t.Fatalf("seed %d: batched fleet diverges at step %d:\n got %q\nwant %q", seed, i, g, w)
			}
		}
	}
	if total.accepted == 0 || total.refused == 0 || total.reacquired == 0 || total.fullLogs == 0 ||
		total.staleAtCreate == 0 || total.staleAtCrash == 0 || total.staleAtSeed == 0 {
		t.Fatalf("the seeds do not reach every case settle exists for: %+v", total)
	}
}
