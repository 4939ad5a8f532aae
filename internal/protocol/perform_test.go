package protocol

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"radar/internal/object"
	"radar/internal/topology"
)

// TestPerformEffects pins what perform commits on the source host for every
// verdict of every move: the request it sends, the estimator shed, the
// affinity left, the one counter that moved, and the observer calls in
// order with their times — completion time for a move (and the drop a
// migration ends in), decision time for a refusal, nothing for a loss or a
// down target — and that the load board forgets the target after every
// handshake that was sent, and only then. A pass issues five of the nine
// method × kind pairs; the others pin that the method alone picks the
// bound and the kind alone picks counter and label.
func TestPerformEffects(t *testing.T) {
	const deferred = uint64(42) // a token kept from an earlier lost exchange
	for _, method := range []Method{Migrate, Replicate, Repair} {
		for _, kind := range []MoveKind{GeoMove, LoadMove, RepairMove} {
			for _, verdict := range []CreateObjStatus{CreateAccepted, CreateRefused, CreateLost, CreateDown} {
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
	st.aff = int32(aff)
	c.red.NotifyReplicaChange(mv.id, h.ID, aff)
	c.loads[0].total = load
	c.loads[0].perObj[mv.id] = objLoad
	var sent CreateObjRequest
	var sentTok uint64
	h.env.SendCreateObj = func(at time.Duration, req CreateObjRequest, tok uint64) (CreateObjStatus, uint64, time.Duration) {
		sent, sentTok = req, tok
		switch verdict {
		case CreateAccepted:
			if !c.deliver(at+delta/2, req) {
				t.Fatal("the idle peer refused")
			}
			return CreateAccepted, tok, at + delta
		case CreateRefused:
			return CreateRefused, tok, at + delta
		case CreateDown:
			return CreateDown, tok, at
		}
		return CreateLost, lostTok, at + delta
	}
	h.electHost(now, -1, 0) // every peer's report is on the board

	want := h.Stats
	status, tok := h.perform(now, mv)

	if status != verdict {
		t.Fatalf("status %d, want %d", status, verdict)
	}
	wantReq := CreateObjRequest{From: h.ID, To: mv.to, Method: mv.method, Object: mv.id, UnitLoad: objLoad / float64(aff), SrcAff: aff}
	if sent != wantReq || sentTok != mv.token {
		t.Errorf("sent %+v with token %d, want %+v with token %d", sent, sentTok, wantReq, mv.token)
	}
	wantAff, wantLower := aff, load
	var wantLog []Event
	decided := Event{Object: int64(mv.id), From: int(h.ID), To: int(mv.to)}
	switch verdict {
	case CreateAccepted:
		done := now + delta
		decided.At, decided.Move = int64(done), mv.kind.String()
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
				wantLog = append(wantLog, Event{At: int64(done), Kind: EventDrop, Object: int64(mv.id), From: int(h.ID)})
			} else {
				want.AffinityDecrs++
			}
			decided.Kind = EventMigrate
		} else {
			wantLower -= ReplicationSourceMaxDecrease(objLoad)
			decided.Kind = EventReplicate
		}
		wantLog = append(wantLog, decided)
		if h.est.lastShed != done {
			t.Errorf("shed at %v, want the completion time %v", h.est.lastShed, done)
		}
	case CreateRefused:
		want.RefusalsGot++
		decided.At, decided.Kind, decided.Method = int64(now), EventRefuse, mv.method.String()
		wantLog = append(wantLog, decided)
	case CreateLost:
		want.CreateLost++
		if tok != lostTok {
			t.Errorf("token %d, want the lost exchange's %d", tok, lostTok)
		}
	case CreateDown:
		if tok != mv.token {
			t.Errorf("token %d, want the move's own %d: nothing was spent", tok, mv.token)
		}
	}
	if kept := h.board[mv.to].asked; kept != (verdict == CreateDown) {
		t.Errorf("target's load report kept = %v after verdict %d, want it forgotten only after a sent handshake", kept, verdict)
	}
	if deferrals(h) != 0 {
		t.Errorf("%d deferred: perform leaves deferral to its caller", deferrals(h))
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
	if !slices.Equal(c.events, wantLog) {
		t.Errorf("observed %+v, want %+v", c.events, wantLog)
	}
	c.checkSubsetInvariant(t)
}

// deferrals counts h's objects that hold a deferred move.
func deferrals(h *Host) int { return len(h.objs.deferred) }

// lostTok is the token a lost exchange in lostMigration returns.
const lostTok = uint64(7)

// lostMigration builds a six-node line whose host 0 holds obj and whose
// transport loses the first exchange after the peer ran it, under
// lostTok, and replays the acceptance when that token is re-issued; it
// sends nothing to a host in c.down. It returns the cluster, the tokens
// host 0 sends, and a request burst that makes obj warm enough to keep,
// too cool to replicate, and 70 % asked from the far end: a pass
// geo-migrates it toward host 5.
func lostMigration(t *testing.T) (c *cluster, tokens *[]uint64, request func()) {
	c = newCluster(t, topology.Line(6), DefaultParams())
	c.seed(obj, 0)
	h := c.hosts[0]
	tokens = new([]uint64)
	h.env.SendCreateObj = func(at time.Duration, req CreateObjRequest, tok uint64) (CreateObjStatus, uint64, time.Duration) {
		if c.down[req.To] {
			return CreateDown, tok, at
		}
		*tokens = append(*tokens, tok)
		if tok == lostTok {
			return CreateAccepted, tok, at // the cached verdict, replayed
		}
		if !c.deliver(at, req) {
			t.Fatal("the idle peer refused")
		}
		return CreateLost, lostTok, at
	}
	return c, tokens, func() {
		for i := 0; i < 7; i++ {
			h.OnRequest(obj, 5)
		}
		for i := 0; i < 3; i++ {
			h.OnRequest(obj, 0)
		}
	}
}

// TestLostGeoMoveIsDeferredThenCompleted: a geo migration whose verdict is
// lost after the peer ran it is deferred (counted, observed, no next
// candidate tried, the object skipped by the pass), and the next pass
// re-issues it under the same token and commits the replayed verdict once.
func TestLostGeoMoveIsDeferredThenCompleted(t *testing.T) {
	c, tokens, request := lostMigration(t)
	h := c.hosts[0]

	request()
	pass := c.decide(0, 100*time.Second)
	if pass.fig3Moves() != 0 || deferrals(h) != 1 {
		t.Fatalf("first pass: %+v, %d deferred; want nothing moved and one move deferred", pass, deferrals(h))
	}
	wantDefer := []Event{{At: int64(100 * time.Second), Kind: EventDefer, Object: int64(obj), From: 0, To: 5, Method: "MIGRATE"}}
	if !slices.Equal(c.events, wantDefer) {
		t.Fatalf("first pass observed %+v, want %+v", c.events, wantDefer)
	}
	if !h.Has(obj) || !c.hosts[5].Has(obj) {
		t.Fatal("after the loss the source must still hold its copy, and the peer the one it created")
	}

	request()
	pass = c.decide(0, 200*time.Second)
	if pass.GeoMigrations != 1 || deferrals(h) != 0 {
		t.Fatalf("second pass: %+v, %d deferred; want the deferred migration completed", pass, deferrals(h))
	}
	if !slices.Equal(*tokens, []uint64{0, lostTok}) {
		t.Fatalf("handshake tokens %v, want one fresh exchange and one re-issue of token %d", *tokens, lostTok)
	}
	at := int64(200 * time.Second)
	wantEvents := append(wantDefer,
		Event{At: at, Kind: EventDrop, Object: int64(obj), From: 0},
		Event{At: at, Kind: EventMigrate, Object: int64(obj), From: 0, To: 5, Move: "geo"})
	if !slices.Equal(c.events, wantEvents) {
		t.Fatalf("the passes observed %+v, want %+v", c.events, wantEvents)
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

// TestStaleDeferralDiesWithItsReplica: a deferred move belongs to the
// replica it was decided for. Once that replica is dropped, a fresh
// replica of the same object that arrives by CreateObj does not inherit
// it: the next pass re-issues nothing, so the cached acceptance is never
// replayed onto the fresh replica and nothing drops it.
func TestStaleDeferralDiesWithItsReplica(t *testing.T) {
	c, tokens, request := lostMigration(t)
	h := c.hosts[0]
	request()
	c.decide(0, 100*time.Second) // defers the migration under lostTok

	if res := h.reduceAffinity(150*time.Second, obj, h.objs.get(obj)); res != affDropped {
		t.Fatalf("dropping the deferred replica: %v, want it dropped", res)
	}
	if !h.CreateObj(150*time.Second, CreateObjRequest{Method: Replicate, Object: obj, SrcAff: 1, From: 5}) {
		t.Fatal("the idle host refused a fresh replica")
	}
	request()
	pass := c.decide(0, 200*time.Second)
	if !slices.Equal(*tokens, []uint64{0}) {
		t.Fatalf("handshake tokens %v, want only the first exchange: the deferral died with its replica", *tokens)
	}
	if pass.GeoMigrations != 0 || pass.DeferredCompleted != 0 || pass.Drops != 0 || !h.Has(obj) {
		t.Fatalf("second pass: %+v, holds obj %v; want the fresh replica kept and nothing moved", pass, h.Has(obj))
	}
	c.checkSubsetInvariant(t)
}

// TestCrashDiscardsDeferrals: a crash wipes every deferred move with the
// rest of the control state, so the pass after recovery re-issues none.
func TestCrashDiscardsDeferrals(t *testing.T) {
	c, tokens, request := lostMigration(t)
	h := c.hosts[0]
	request()
	c.decide(0, 100*time.Second)
	if deferrals(h) != 1 {
		t.Fatalf("%d deferred after the lost exchange, want 1", deferrals(h))
	}
	h.OnCrash()
	if deferrals(h) != 0 {
		t.Fatalf("%d deferred after a crash, want none", deferrals(h))
	}
	h.OnRecover(150 * time.Second)
	request()
	if pass := c.decide(0, 200*time.Second); pass.DeferredCompleted != 0 || !slices.Equal(*tokens, []uint64{0}) {
		t.Fatalf("pass after recovery: %+v, tokens %v; want no re-issue", pass, *tokens)
	}
}

// TestDeferredRetryWalksInIDOrder: three deferred migrations are re-issued
// in ascending object order, each under its own token, and the middle
// one's replayed migration dropping its replica does not make the retry
// skip the third.
func TestDeferredRetryWalksInIDOrder(t *testing.T) {
	c := newCluster(t, topology.Line(6), DefaultParams())
	h := c.hosts[0]
	ids := []object.ID{3, 70, 140} // three bitmap words
	for _, id := range ids {
		c.seed(id, 0)
	}
	for _, id := range []object.ID{ids[0], ids[2]} { // the migration only lowers their affinity
		h.objs.get(id).aff = 2
		c.red.NotifyReplicaChange(id, 0, 2)
	}
	lose := true
	var reissued []uint64
	h.env.SendCreateObj = func(at time.Duration, req CreateObjRequest, tok uint64) (CreateObjStatus, uint64, time.Duration) {
		switch {
		case tok != 0:
			reissued = append(reissued, tok)
			return CreateAccepted, tok, at // the cached verdict, replayed
		case !lose:
			return CreateRefused, 0, at
		case !c.deliver(at, req):
			t.Fatal("the idle peer refused")
		}
		return CreateLost, 100 + uint64(req.Object), at
	}
	request := func() {
		for _, id := range ids {
			for i := 0; i < 7; i++ {
				h.OnRequest(id, 5)
			}
			for i := 0; i < 3; i++ {
				h.OnRequest(id, 0)
			}
		}
	}
	request()
	c.decide(0, 100*time.Second)
	if deferrals(h) != 3 {
		t.Fatalf("%d deferred after the first pass, want 3", deferrals(h))
	}
	lose = false
	request()
	pass := c.decide(0, 200*time.Second)
	if want := []uint64{103, 170, 240}; !slices.Equal(reissued, want) {
		t.Fatalf("re-issued tokens %v, want %v", reissued, want)
	}
	if pass.DeferredCompleted != 3 || pass.GeoMigrations != 3 || pass.Drops != 1 || deferrals(h) != 0 {
		t.Fatalf("second pass: %+v, %d deferred; want three migrations completed, one drop", pass, deferrals(h))
	}
	if h.Has(ids[1]) || h.Affinity(ids[0]) != 1 || h.Affinity(ids[2]) != 1 {
		t.Fatalf("after the retries: holds %d %v, affinities %d and %d; want it gone and the others at 1",
			ids[1], h.Has(ids[1]), h.Affinity(ids[0]), h.Affinity(ids[2]))
	}
	c.checkSubsetInvariant(t)
}

// offered wraps host n's transport to record the target of every handshake
// the host offers it, those to down hosts included.
func (c *cluster) offered(n topology.NodeID) *[]topology.NodeID {
	to := new([]topology.NodeID)
	h := c.hosts[n]
	send := h.env.SendCreateObj
	h.env.SendCreateObj = func(at time.Duration, req CreateObjRequest, tok uint64) (CreateObjStatus, uint64, time.Duration) {
		*to = append(*to, req.To)
		return send(at, req, tok)
	}
	return to
}

// TestDownGeoTargetTriesNextCandidate: a geo candidate the transport knows
// down costs the pass nothing, and the next candidate takes the move.
func TestDownGeoTargetTriesNextCandidate(t *testing.T) {
	c := newCluster(t, topology.Line(6), DefaultParams())
	c.seed(obj, 0)
	c.down[5] = true
	h := c.hosts[0]
	offered := c.offered(0)
	for i := 0; i < 7; i++ {
		h.OnRequest(obj, 5)
	}
	for i := 0; i < 3; i++ {
		h.OnRequest(obj, 0)
	}
	pass := c.decide(0, 100*time.Second)
	if !slices.Equal(*offered, []topology.NodeID{5, 4}) {
		t.Fatalf("handshakes offered to %v, want the down host 5 and then 4", *offered)
	}
	if pass != (HostStats{GeoMigrations: 1, Drops: 1}) {
		t.Fatalf("pass %+v, want one geo migration and the drop it ends in", pass)
	}
	if h.Has(obj) || c.hosts[5].Has(obj) || !c.hosts[4].Has(obj) {
		t.Fatalf("obj held by 0/4/5: %v/%v/%v, want only by 4", h.Has(obj), c.hosts[4].Has(obj), c.hosts[5].Has(obj))
	}
	c.checkSubsetInvariant(t)
}

// TestDeferredMoveHeldWhileTargetDown: a deferred move whose target is
// down is held as it is — not observed or counted again, no other
// candidate tried — and re-issued under the same token once the target is
// back.
func TestDeferredMoveHeldWhileTargetDown(t *testing.T) {
	c, tokens, request := lostMigration(t)
	h := c.hosts[0]
	request()
	c.decide(0, 100*time.Second) // defers the migration under lostTok
	deferredEvents := slices.Clone(c.events)

	c.down[5] = true
	request()
	if pass := c.decide(0, 200*time.Second); pass != (HostStats{}) {
		t.Fatalf("pass with the target down: %+v, want nothing counted", pass)
	}
	if at, ok := h.objs.deferral(obj); !ok || h.objs.deferred[at].token != lostTok || h.objs.deferred[at].to != 5 {
		t.Fatalf("deferrals after the down pass: %+v, want the migration to 5 under token %d", h.objs.deferred, lostTok)
	}
	if !slices.Equal(c.events, deferredEvents) || !slices.Equal(*tokens, []uint64{0}) {
		t.Fatalf("down pass observed %+v and sent tokens %v; want nothing new", c.events[len(deferredEvents):], *tokens)
	}

	c.down[5] = false
	request()
	if pass := c.decide(0, 300*time.Second); pass.DeferredCompleted != 1 || pass.GeoMigrations != 1 {
		t.Fatalf("pass with the target back: %+v, want the deferred migration completed", pass)
	}
	if !slices.Equal(*tokens, []uint64{0, lostTok}) {
		t.Fatalf("handshake tokens %v, want the re-issue under token %d", *tokens, lostTok)
	}
	if h.Stats.DeferredMoves != 1 || h.Has(obj) {
		t.Fatalf("DeferredMoves %d, source holds obj %v; want one deferral and the object gone", h.Stats.DeferredMoves, h.Has(obj))
	}
	c.checkSubsetInvariant(t)
}

// TestRepairAndOffloadStopAtDownTarget: floor repair and offload each stop
// at the first elected host the transport knows down (load reports still
// answer for it, as for a host that crashed after reporting).
func TestRepairAndOffloadStopAtDownTarget(t *testing.T) {
	params := DefaultParams()
	t.Run("repair", func(t *testing.T) {
		params := params
		params.ReplicaFloor = 2
		c := newCluster(t, topology.Line(4), params)
		c.red.SetReplicaFloor(params.ReplicaFloor)
		c.seed(obj, 0)
		c.down[1], c.down[2], c.down[3] = true, true, true
		offered := c.offered(0)
		if pass := c.decide(0, 100*time.Second); pass.RepairReplications != 0 || len(*offered) != 1 {
			t.Fatalf("pass %+v offered handshakes to %v; want one, to a down host, and no repair", pass, *offered)
		}
		if got := len(c.red.ReplicaHosts(obj, nil)); got != 1 {
			t.Fatalf("replica count %d, want 1", got)
		}
	})
	t.Run("offload", func(t *testing.T) {
		c := newCluster(t, topology.Line(4), params)
		overloadHostZero(t, c, params, 3, 100, 2)
		c.down[1], c.down[2], c.down[3] = true, true, true
		offered := c.offered(0)
		pass := c.decide(0, 100*time.Second)
		if pass.OffloadRuns != 1 || pass.loadMoves() != 0 || len(*offered) != 1 {
			t.Fatalf("pass %+v offered handshakes to %v; want one offload run that stops at its first, down, recipient", pass, *offered)
		}
	})
}
