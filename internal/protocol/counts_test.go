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

// checkCountsReset fails t unless h's count store is as a reset leaves it:
// no hosted state holds a row or a count, no cell is handed out, no spilled
// tally row waits to be handed out again, and every block the store kept
// reads zero.
func checkCountsReset(t testing.TB, h *Host, when string) {
	t.Helper()
	for _, st := range h.objs.sts {
		if st.row != 0 || st.total != 0 {
			t.Fatalf("%s: object %d kept row %d, Total %d", when, st.id, st.row, st.total)
		}
	}
	if h.cnts.used != 0 || len(h.cnts.free) != 0 {
		t.Fatalf("%s: %d cells still handed out, %d tally rows waiting", when, h.cnts.used, len(h.cnts.free))
	}
	for b, block := range h.cnts.blocks {
		if i := slices.IndexFunc(block, func(c int32) bool { return c != 0 }); i >= 0 {
			t.Fatalf("%s: kept block %d reads %d at %d", when, b, block[i], i)
		}
	}
}

// runCountsProgram holds a host's count store against a reference map of
// each hosted object's counts by node, built from the preference paths of
// the requests it was asked to serve, on a ring of 12: wider than
// rowTallies, so rows spill. Each triple of bytes requests eight objects
// in a burst from one gateway or one object from gateway after gateway,
// has a peer create or raise a replica, drops one as a pass would (settled
// first), runs a placement pass that moves nothing, or crashes and
// recovers the host. Whenever the first byte's top bit is set, and after
// every pass and crash, the host settles and every hosted state must read
// its reference row, with Total the host's own count and a row held iff
// Total > 0; no two states share a row. After a pass or a crash no state
// holds a row and every block the store kept reads zero. It returns how
// many checked states held a spilled row.
func runCountsProgram(t *testing.T, prog []byte) (spilled int) {
	const universe = 48
	params := DefaultParams()
	c := newCluster(t, topology.Ring(12), params)
	h := c.hosts[0]
	// 32-cell blocks, two rows of either kind: a window's rows span several.
	h.cnts.shift = 5
	for p := 1; p < len(c.loads); p++ {
		c.loads[p].total = 2 * params.HighWatermark // every peer refuses: the passes move nothing
	}
	for i := 0; i < universe; i++ {
		c.seed(object.ID(i), 1) // a second copy, so the redirector lets host 0 drop its own
		if i%4 != 0 {
			c.seed(object.ID(i), 0)
		}
	}
	ref := make(map[object.ID][]int32)
	check := func(step int) {
		t.Helper()
		h.settle()
		owner := make(map[int32]object.ID)
		for at := range h.objs.sts {
			st := &h.objs.sts[at]
			cnt, want := h.nodeCounts(st), ref[object.ID(st.id)]
			if !slices.Equal(cnt, want) {
				t.Fatalf("step %d: object %d counts %v, want %v", step, st.id, cnt, want)
			}
			if (st.row != 0) != (st.total > 0) || cnt != nil && st.total != cnt[h.ID] {
				t.Fatalf("step %d: object %d row %d, Total %d, counts %v", step, st.id, st.row, st.total, cnt)
			}
			if other, ok := owner[st.row]; ok && st.row != 0 {
				t.Fatalf("step %d: objects %d and %d share row %d", step, other, st.id, st.row)
			}
			owner[st.row] = object.ID(st.id)
			if gws, cnts := h.cnts.gateways(st); gws == nil && cnts != nil {
				spilled++
			}
		}
	}
	checkReset := func(step int) {
		t.Helper()
		clear(ref)
		check(step)
		checkCountsReset(t, h, fmt.Sprintf("step %d", step))
	}
	now := time.Duration(0)
	for step := 0; step+2 < len(prog); step += 3 {
		now += 10 * time.Second
		id := object.ID(int(prog[step+1]) % universe)
		st := h.objs.get(id)
		switch op := prog[step] % 32; {
		case op < 20: // a run of requests; some fill the log
			n := topology.NodeID(len(c.hosts))
			g := topology.NodeID(prog[step+2]) % n
			for j := 0; j <= int(prog[step+2]>>3); j++ {
				// Eight objects in turn from one gateway, or one object from
				// gateway after gateway.
				rid, rg := (id+object.ID(j%8))%universe, g
				if op >= 10 {
					rid, rg = id, (g+topology.NodeID(j))%n
				}
				h.OnRequest(rid, rg)
				if !h.Has(rid) {
					continue // counted against no state
				}
				if ref[rid] == nil {
					ref[rid] = make([]int32, len(c.hosts))
				}
				for _, p := range c.routes.PreferencePath(h.ID, rg) {
					ref[rid][p]++
				}
			}
		case op < 24:
			h.CreateObj(now, CreateObjRequest{Method: Replicate, Object: id, SrcAff: 1, From: 1})
		case op < 28: // dropped as a pass drops: after settle, mid-window
			if st != nil {
				h.settle()
				if h.reduceAffinity(now, id, st) == affDropped {
					delete(ref, id)
				}
			}
		case op < 30:
			before := h.Stats
			h.DecidePlacement(now)
			if h.Stats.GeoMigrations != before.GeoMigrations || h.Stats.GeoReplications != before.GeoReplications {
				t.Fatalf("step %d: the pass moved an object: %+v", step, h.Stats)
			}
			checkReset(step)
			continue
		default:
			h.OnCrash()
			h.OnRecover(now)
			checkReset(step)
			continue
		}
		if prog[step] >= 128 {
			check(step)
		}
	}
	check(len(prog))
	return spilled
}

// countsCorpus is FuzzHostCounts' seed corpus.
func countsCorpus() [][]byte {
	var corpus [][]byte
	for seed := int64(0); seed < 4; seed++ {
		data := make([]byte, 600)
		workload.Stream(seed, 0).Read(data)
		corpus = append(corpus, data)
	}
	return corpus
}

// TestHostCountsCorpus runs FuzzHostCounts' seed corpus, which must reach
// spilled rows.
func TestHostCountsCorpus(t *testing.T) {
	spilled := 0
	for _, prog := range countsCorpus() {
		spilled += runCountsProgram(t, prog)
	}
	if spilled == 0 {
		t.Fatal("no checked state held a spilled row: the corpus never crosses rowTallies gateways")
	}
	t.Logf("%d checked states held a spilled row", spilled)
}

// FuzzHostCounts is runCountsProgram over fuzzed programs.
func FuzzHostCounts(f *testing.F) {
	for _, prog := range countsCorpus() {
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) { runCountsProgram(t, prog) })
}
