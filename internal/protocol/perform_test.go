package protocol

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"radar/internal/object"
	"radar/internal/topology"
)

// callLog records observer calls in order, each with its timestamp.
type callLog []string

func (l *callLog) OnMigrate(now time.Duration, id object.ID, from, to topology.NodeID, kind MoveKind) {
	*l = append(*l, fmt.Sprintf("migrate %d %d->%d %v @%v", id, from, to, kind, now))
}

func (l *callLog) OnReplicate(now time.Duration, id object.ID, from, to topology.NodeID, kind MoveKind) {
	*l = append(*l, fmt.Sprintf("replicate %d %d->%d %v @%v", id, from, to, kind, now))
}

func (l *callLog) OnDrop(now time.Duration, id object.ID, host topology.NodeID) {
	*l = append(*l, fmt.Sprintf("drop %d %d @%v", id, host, now))
}

func (l *callLog) OnRefuse(now time.Duration, id object.ID, from, to topology.NodeID, m Method) {
	*l = append(*l, fmt.Sprintf("refuse %d %d->%d %v @%v", id, from, to, m, now))
}

func (l *callLog) OnDefer(now time.Duration, id object.ID, from, to topology.NodeID, m Method) {
	*l = append(*l, fmt.Sprintf("defer %d %d->%d %v @%v", id, from, to, m, now))
}

// TestPerformEffects pins what perform commits on the source host for every
// verdict of every move: the request it sends, the estimator shed, the
// affinity left, the one counter that moved, and the observer calls in
// order with their times — completion time for a move (and the drop a
// migration ends in), decision time for a refusal, nothing for a loss. A
// pass issues five of the nine method × kind pairs; the others pin that the
// method alone picks the bound and the kind alone picks counter and label.
func TestPerformEffects(t *testing.T) {
	const deferred = uint64(42) // a token kept from an earlier lost exchange
	for _, method := range []Method{Migrate, Replicate, Repair} {
		for _, kind := range []MoveKind{GeoMove, LoadMove, RepairMove} {
			for _, verdict := range []CreateObjStatus{CreateAccepted, CreateRefused, CreateLost} {
				for _, token := range []uint64{0, deferred} {
					for _, aff := range []int{1, 3} {
						name := fmt.Sprintf("%v/%v/verdict%d/token%d/aff%d", method, kind, verdict, token, aff)
						t.Run(name, func(t *testing.T) {
							checkPerform(t, move{id: obj, to: 2, method: method, kind: kind, token: token}, verdict, aff)
						})
					}
				}
			}
		}
	}
}

// checkPerform performs mv from host 0 of a three-node line, whose replica
// has affinity aff, over a transport that answers verdict after delta.
func checkPerform(t *testing.T, mv move, verdict CreateObjStatus, aff int) {
	const (
		now     = 100 * time.Second
		delta   = 7 * time.Second // the handshake's round trip
		load    = 20.0
		objLoad = 8.0
		lostTok = uint64(99)
	)
	c := newCluster(t, topology.Line(3), DefaultParams())
	c.seed(mv.id, 0)
	h := c.hosts[0]
	st := h.objs.get(mv.id)
	st.Aff = aff
	c.red.NotifyReplicaChange(mv.id, h.ID, aff)
	c.loads[0].total = load
	c.loads[0].perObj[mv.id] = objLoad
	var log callLog
	h.env.Observer = &log
	var sent CreateObjRequest
	var sentTok uint64
	h.env.SendCreateObj = func(at time.Duration, req CreateObjRequest, tok uint64, exec func(time.Duration) bool) (CreateObjStatus, uint64, time.Duration) {
		sent, sentTok = req, tok
		switch verdict {
		case CreateAccepted:
			if !exec(at + delta/2) {
				t.Fatal("the idle peer refused")
			}
			return CreateAccepted, tok, at + delta
		case CreateRefused:
			return CreateRefused, tok, at + delta
		}
		return CreateLost, lostTok, at + delta
	}

	want := h.Stats
	status, tok := h.perform(now, mv, st, c.hosts[mv.to])

	if status != verdict {
		t.Fatalf("status %d, want %d", status, verdict)
	}
	wantReq := CreateObjRequest{From: h.ID, To: mv.to, Method: mv.method, Object: mv.id, UnitLoad: objLoad / float64(aff), SrcAff: aff}
	if sent != wantReq || sentTok != mv.token {
		t.Errorf("sent %+v with token %d, want %+v with token %d", sent, sentTok, wantReq, mv.token)
	}
	wantAff, wantLower := aff, load
	var wantLog []string
	switch verdict {
	case CreateAccepted:
		done := now + delta
		switch {
		case mv.kind == RepairMove:
			want.RepairReplications++
		case mv.kind == LoadMove && mv.method == Migrate:
			want.LoadMigrations++
		case mv.kind == LoadMove:
			want.LoadReplications++
		case mv.method == Migrate:
			want.GeoMigrations++
		default:
			want.GeoReplications++
		}
		if mv.method == Migrate {
			wantLower -= MigrationSourceMaxDecrease(objLoad, aff)
			wantAff--
			if wantAff == 0 { // the peer holds the copy now, so the redirector lets this one go
				want.Drops++
				wantLog = append(wantLog, fmt.Sprintf("drop %d %d @%v", mv.id, h.ID, done))
			} else {
				want.AffinityDecrs++
			}
			wantLog = append(wantLog, fmt.Sprintf("migrate %d %d->%d %v @%v", mv.id, h.ID, mv.to, mv.kind, done))
		} else {
			wantLower -= ReplicationSourceMaxDecrease(objLoad)
			wantLog = append(wantLog, fmt.Sprintf("replicate %d %d->%d %v @%v", mv.id, h.ID, mv.to, mv.kind, done))
		}
		if h.est.lastShed != done {
			t.Errorf("shed at %v, want the completion time %v", h.est.lastShed, done)
		}
	case CreateRefused:
		want.RefusalsGot++
		wantLog = append(wantLog, fmt.Sprintf("refuse %d %d->%d %v @%v", mv.id, h.ID, mv.to, mv.method, now))
	case CreateLost:
		want.CreateLost++
		if tok != lostTok {
			t.Errorf("token %d, want the lost exchange's %d", tok, lostTok)
		}
	}
	if got := h.est.LoadForOffload(load); got != wantLower {
		t.Errorf("lower-bound load %v, want %v", got, wantLower)
	}
	if h.est.lowerActive != (verdict == CreateAccepted) {
		t.Errorf("lower estimate active = %v after verdict %d", h.est.lowerActive, verdict)
	}
	if got := h.Affinity(mv.id); got != wantAff {
		t.Errorf("affinity %d, want %d", got, wantAff)
	}
	if h.Stats != want {
		t.Errorf("stats %+v, want %+v", h.Stats, want)
	}
	if !slices.Equal(log, wantLog) {
		t.Errorf("observed %q, want %q", []string(log), wantLog)
	}
	c.checkSubsetInvariant(t)
}

// TestLostGeoMoveIsDeferredThenCompleted: a geo migration whose verdict is
// lost after the peer ran it is deferred (counted, observed, no next
// candidate tried, the object skipped by the pass), and the next pass
// re-issues it under the same token and commits the replayed verdict once.
func TestLostGeoMoveIsDeferredThenCompleted(t *testing.T) {
	c := newCluster(t, topology.Line(6), DefaultParams())
	c.seed(obj, 0)
	h := c.hosts[0]
	const lostTok = uint64(7)
	var tokens []uint64
	h.env.SendCreateObj = func(at time.Duration, _ CreateObjRequest, tok uint64, exec func(time.Duration) bool) (CreateObjStatus, uint64, time.Duration) {
		tokens = append(tokens, tok)
		if tok == lostTok {
			return CreateAccepted, tok, at // the cached verdict, replayed
		}
		if !exec(at) {
			t.Fatal("the idle peer refused")
		}
		return CreateLost, lostTok, at
	}
	// Warm enough to keep, too cool to replicate, 70 % of it from the far end.
	request := func() {
		for i := 0; i < 7; i++ {
			h.OnRequest(obj, 5)
		}
		for i := 0; i < 3; i++ {
			h.OnRequest(obj, 0)
		}
	}

	request()
	sum := h.DecidePlacement(100 * time.Second)
	if sum.moved() || sum.Deferred != 1 {
		t.Fatalf("first pass: %+v, want nothing moved and one move deferred", sum)
	}
	wantDefer := []moveRec{{id: obj, from: 0, to: 5, method: Migrate}}
	if !slices.Equal(c.rec.deferrals, wantDefer) || len(c.rec.migrates) != 0 {
		t.Fatalf("first pass observed deferrals %+v, migrations %+v; want %+v and none", c.rec.deferrals, c.rec.migrates, wantDefer)
	}
	if !h.Has(obj) || !c.hosts[5].Has(obj) {
		t.Fatal("after the loss the source must still hold its copy, and the peer the one it created")
	}

	request()
	sum = h.DecidePlacement(200 * time.Second)
	if sum.Migrated != 1 || sum.Deferred != 0 {
		t.Fatalf("second pass: %+v, want the deferred migration completed", sum)
	}
	if !slices.Equal(tokens, []uint64{0, lostTok}) {
		t.Fatalf("handshake tokens %v, want one fresh exchange and one re-issue of token %d", tokens, lostTok)
	}
	wantMigrate := []moveRec{{id: obj, from: 0, to: 5, kind: GeoMove}}
	if !slices.Equal(c.rec.migrates, wantMigrate) || len(c.rec.deferrals) != 1 {
		t.Fatalf("second pass observed migrations %+v, deferrals %+v", c.rec.migrates, c.rec.deferrals)
	}
	want := HostStats{CreateLost: 1, DeferredMoves: 1, DeferredCompleted: 1, GeoMigrations: 1, Drops: 1}
	if h.Stats != want {
		t.Fatalf("stats %+v, want %+v", h.Stats, want)
	}
	if h.Has(obj) {
		t.Fatal("the source still holds the object it migrated")
	}
	c.checkSubsetInvariant(t)
}
