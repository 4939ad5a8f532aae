package ctrlplane

import (
	"testing"
	"time"

	"radar/internal/topology"
	"radar/internal/workload"
)

// instantTransport delivers every leg after a fixed latency, counting legs.
func instantTransport(latency time.Duration, legs *int) Transport {
	return func(now time.Duration, from, to topology.NodeID) (time.Duration, bool) {
		if legs != nil {
			*legs++
		}
		return now + latency, true
	}
}

func newPlane(t *testing.T, faults Faults, tr Transport) *Plane {
	t.Helper()
	p, err := New(Params{}, faults, workload.Stream(1, 0), tr)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCallReliableSucceedsFirstTry(t *testing.T) {
	p := newPlane(t, Faults{}, instantTransport(10*time.Millisecond, nil))
	var execAt time.Duration
	execs := 0
	res, tok, doneAt, ok := p.Call(time.Second, 0, 1, 0, func(at time.Duration) bool {
		execs++
		execAt = at
		return true
	})
	if !ok || !res || execs != 1 {
		t.Fatalf("Call = (%v, ok=%v), execs=%d", res, ok, execs)
	}
	if tok == 0 {
		t.Fatal("no token allocated")
	}
	if execAt != time.Second+10*time.Millisecond {
		t.Fatalf("callee ran at %v, want 1.01s", execAt)
	}
	if doneAt != time.Second+20*time.Millisecond {
		t.Fatalf("reply at %v, want 1.02s (request + reply legs)", doneAt)
	}
	s := p.Stats()
	if s.Attempts != 1 || s.Retries != 0 || s.Timeouts != 0 || s.Lost != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestCallDropOneIsLostAfterBudget(t *testing.T) {
	p := newPlane(t, Faults{Drop: 1}, instantTransport(time.Millisecond, nil))
	execs := 0
	_, tok, doneAt, ok := p.Call(0, 0, 1, 0, func(time.Duration) bool {
		execs++
		return true
	})
	if ok {
		t.Fatal("drop:1 RPC succeeded")
	}
	if execs != 0 {
		t.Fatalf("callee ran %d times despite total loss", execs)
	}
	s := p.Stats()
	if want := int64(1 + p.params.Retries); s.Attempts != want {
		t.Fatalf("attempts = %d, want %d", s.Attempts, want)
	}
	if s.Retries != int64(p.params.Retries) || s.Lost != 1 {
		t.Fatalf("stats = %+v", s)
	}
	// Give-up time covers every timeout window plus backoffs.
	if minDone := time.Duration(s.Attempts) * p.params.Timeout; doneAt < minDone {
		t.Fatalf("gave up at %v, before %d timeout windows (%v)", doneAt, s.Attempts, minDone)
	}
	if tok == 0 {
		t.Fatal("lost call must still return its token for deferred retry")
	}
}

func TestCallDupExecutesOnce(t *testing.T) {
	legs := 0
	p := newPlane(t, Faults{Dup: 1}, instantTransport(time.Millisecond, &legs))
	execs := 0
	res, _, _, ok := p.Call(0, 0, 1, 0, func(time.Duration) bool {
		execs++
		return true
	})
	if !ok || !res {
		t.Fatalf("Call = (%v, %v)", res, ok)
	}
	if execs != 1 {
		t.Fatalf("callee ran %d times under dup:1, want 1", execs)
	}
	// Request + its duplicate + reply + its duplicate all hit the wire.
	if legs != 4 {
		t.Fatalf("transport legs = %d, want 4", legs)
	}
	if s := p.Stats(); s.DupLegs != 2 {
		t.Fatalf("dup legs = %d, want 2", s.DupLegs)
	}
}

func TestCallTokenReplayIsIdempotent(t *testing.T) {
	// First call: requests always arrive, replies always lost -> callee
	// executed, caller gives up. Same-token retry on a healed plane must
	// replay the verdict the token carries without re-executing.
	failReplies := true
	tr := func(now time.Duration, from, to topology.NodeID) (time.Duration, bool) {
		if failReplies && from == 1 { // reply direction
			return now, false
		}
		return now + time.Millisecond, true
	}
	p := newPlane(t, Faults{}, tr)
	execs := 0
	exec := func(time.Duration) bool {
		execs++
		return true
	}
	_, tok, _, ok := p.Call(0, 0, 1, 0, exec)
	if ok {
		t.Fatal("call should have been lost (replies severed)")
	}
	if execs != 1 {
		t.Fatalf("callee ran %d times (retries must dedupe on token), want 1", execs)
	}
	failReplies = false
	res, tok2, _, ok := p.Call(time.Minute, 0, 1, tok, exec)
	if !ok || !res {
		t.Fatalf("same-token retry = (%v, %v)", res, ok)
	}
	if tok2 != tok {
		t.Fatalf("token changed on re-issue: %d -> %d", tok, tok2)
	}
	if execs != 1 {
		t.Fatalf("callee re-executed on token replay: %d runs", execs)
	}
}

func TestCallTokenReissueAfterDroppedRequests(t *testing.T) {
	// First call: no request ever arrives -> the callee never ran and there
	// is no verdict to replay. The same-token re-issue is the first
	// execution.
	failRequests := true
	tr := func(now time.Duration, from, to topology.NodeID) (time.Duration, bool) {
		if failRequests && from == 0 { // request direction
			return now, false
		}
		return now + time.Millisecond, true
	}
	p := newPlane(t, Faults{}, tr)
	execs := 0
	exec := func(time.Duration) bool {
		execs++
		return true
	}
	_, tok, _, ok := p.Call(0, 0, 1, 0, exec)
	if ok || execs != 0 {
		t.Fatalf("call with severed requests: ok=%v, execs=%d; want lost and unexecuted", ok, execs)
	}
	failRequests = false
	res, _, _, ok := p.Call(time.Minute, 0, 1, tok, exec)
	if !ok || !res || execs != 1 {
		t.Fatalf("same-token re-issue = (%v, %v), execs=%d; want a first execution", res, ok, execs)
	}
}

func TestConfirmedCallsLeaveNoVerdict(t *testing.T) {
	// A confirmed call answers its callee's verdict and hands back a bare
	// message token: only a call that executed and ended Lost folds a
	// verdict into its token.
	p := newPlane(t, Faults{Dup: 0.5, Delay: time.Millisecond}, instantTransport(time.Millisecond, nil))
	for i := 0; i < 10000; i++ {
		res, tok, _, ok := p.Call(time.Duration(i)*time.Second, 0, 1, 0, func(time.Duration) bool { return i%2 == 0 })
		if !ok || res != (i%2 == 0) {
			t.Fatalf("call %d = (%v, ok=%v)", i, res, ok)
		}
		if tok&(tokenRan|tokenVerdict) != 0 {
			t.Fatalf("call %d: confirmed token %#x carries a verdict", i, tok)
		}
	}
}

// FuzzCallReplay holds token-carried replay against the verdict cache it
// replaced: a map from message to whether its callee ran and what it said
// first. Each pair of bytes is one call. The first byte's top bit picks a
// re-issue of a held Lost token (the second byte chooses which) over a
// fresh call, and its low four bits deliver or drop the legs of the call's
// two attempts in order. The second byte's top bit is the verdict a fresh
// message's callee gives. A Lost call's token is held in place of the one
// it was given; a confirmed re-issue releases it. Every call must run the
// callee at most once per message, a confirmed call must answer the
// first execution's verdict, and a Lost call's token must name the message
// it was given.
func FuzzCallReplay(f *testing.F) {
	f.Add([]byte{0x01, 0x80, 0x80, 0x00, 0x8f, 0x00})
	f.Add([]byte{0x00, 0x00, 0x80, 0x00, 0x85, 0x00, 0x0f, 0x80})
	f.Add([]byte{0x03, 0x80, 0x05, 0x00, 0x81, 0x01, 0x80, 0x00, 0x8b, 0x01})
	f.Fuzz(func(t *testing.T, prog []byte) {
		type message struct{ says, ran, verdict bool }
		var legs byte // the current call's delivery bits, consumed low first
		tr := func(now time.Duration, from, to topology.NodeID) (time.Duration, bool) {
			ok := legs&1 != 0
			legs >>= 1
			return now + time.Millisecond, ok
		}
		p, err := New(Params{Retries: 1}, Faults{}, workload.Stream(1, 0), tr)
		if err != nil {
			t.Fatal(err)
		}
		msgs := map[uint64]*message{}
		var held []uint64
		for step := 0; step+1 < len(prog); step += 2 {
			op, arg := prog[step], prog[step+1]
			legs = op & 0x0f
			given, at := uint64(0), -1
			m := &message{says: arg&0x80 != 0}
			if op&0x80 != 0 && len(held) > 0 {
				at = int(arg) % len(held)
				given = held[at]
				m = msgs[given>>tokenShift]
			}
			execs := 0
			res, tok, _, ok := p.Call(time.Duration(step)*time.Second, 0, 1, given, func(time.Duration) bool {
				execs++
				return m.says
			})
			id := tok >> tokenShift
			switch {
			case given == 0 && msgs[id] != nil:
				t.Fatalf("step %d: fresh call reused message %d", step, id)
			case given != 0 && id != given>>tokenShift:
				t.Fatalf("step %d: token %#x came back naming message %d", step, given, id)
			case execs > 1 || execs == 1 && m.ran:
				t.Fatalf("step %d: callee of message %d ran %d more times, ran before: %v", step, id, execs, m.ran)
			}
			msgs[id] = m
			if execs == 1 {
				m.ran, m.verdict = true, m.says
			}
			switch {
			case ok && (!m.ran || res != m.verdict):
				t.Fatalf("step %d: confirmed call of message %d answered %v; ran %v, first verdict %v", step, id, res, m.ran, m.verdict)
			case ok && given != 0 && tok != given:
				t.Fatalf("step %d: confirmed re-issue returned token %#x, given %#x", step, tok, given)
			case ok && at >= 0:
				held = append(held[:at], held[at+1:]...)
			case !ok && at >= 0:
				held[at] = tok
			case !ok:
				held = append(held, tok)
			}
		}
	})
}

func TestCallTimeoutFromDelay(t *testing.T) {
	// Transport latency beyond the per-attempt timeout: every attempt
	// times out even with zero drop probability, and the callee runs only
	// once thanks to token dedupe.
	p, err := New(Params{Timeout: 10 * time.Millisecond}, Faults{},
		workload.Stream(1, 0), instantTransport(50*time.Millisecond, nil))
	if err != nil {
		t.Fatal(err)
	}
	execs := 0
	_, _, _, ok := p.Call(0, 0, 1, 0, func(time.Duration) bool {
		execs++
		return true
	})
	if ok {
		t.Fatal("late replies must count as timeouts")
	}
	if execs != 1 {
		t.Fatalf("callee ran %d times, want 1 (requests all arrive)", execs)
	}
	if s := p.Stats(); s.Timeouts != s.Attempts {
		t.Fatalf("stats = %+v, want every attempt timed out", s)
	}
}

func TestNotifyLossAndDelivery(t *testing.T) {
	p := newPlane(t, Faults{Drop: 1}, instantTransport(time.Millisecond, nil))
	applied := false
	if p.Notify(0, 0, 1, func(time.Duration) { applied = true }) || applied {
		t.Fatal("drop:1 notify delivered")
	}
	p2 := newPlane(t, Faults{}, instantTransport(time.Millisecond, nil))
	var at time.Duration
	if !p2.Notify(time.Second, 0, 1, func(a time.Duration) { at = a }) {
		t.Fatal("reliable notify lost")
	}
	if at != time.Second+time.Millisecond {
		t.Fatalf("notify applied at %v", at)
	}
	if s := p.Stats(); s.NotifiesSent != 1 || s.NotifiesLost != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestLoopbackLegIsExempt(t *testing.T) {
	p := newPlane(t, Faults{Drop: 1}, func(time.Duration, topology.NodeID, topology.NodeID) (time.Duration, bool) {
		t.Fatal("loopback leg hit the transport")
		return 0, false
	})
	res, _, doneAt, ok := p.Call(time.Second, 3, 3, 0, func(time.Duration) bool { return true })
	if !ok || !res || doneAt != time.Second {
		t.Fatalf("loopback call = (%v, %v, %v)", res, ok, doneAt)
	}
}

func TestCallDeterministicGivenSeed(t *testing.T) {
	run := func() (Stats, time.Duration) {
		p := newPlane(t, Faults{Drop: 0.5, Dup: 0.3, Delay: 20 * time.Millisecond},
			instantTransport(time.Millisecond, nil))
		var last time.Duration
		for i := 0; i < 50; i++ {
			_, _, doneAt, _ := p.Call(time.Duration(i)*time.Second, 0, 1, 0,
				func(time.Duration) bool { return true })
			last = doneAt
		}
		return p.Stats(), last
	}
	s1, d1 := run()
	s2, d2 := run()
	if s1 != s2 || d1 != d2 {
		t.Fatalf("non-deterministic: %+v/%v vs %+v/%v", s1, d1, s2, d2)
	}
	if s1.DroppedLegs == 0 || s1.DupLegs == 0 {
		t.Fatalf("faults never fired: %+v", s1)
	}
}

func TestParamsValidate(t *testing.T) {
	for _, bad := range []Params{
		{Timeout: -time.Second},
		{Retries: -1},
		{BackoffBase: -time.Millisecond},
		{BackoffBase: time.Second, BackoffCap: time.Millisecond},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate(%+v) succeeded, want error", bad)
		}
	}
	if err := (Params{}).Validate(); err != nil {
		t.Errorf("zero params rejected: %v", err)
	}
	def := Params{}.WithDefaults()
	if def.Timeout != time.Second || def.Retries != 3 ||
		def.BackoffBase != 200*time.Millisecond || def.BackoffCap != 2*time.Second {
		t.Fatalf("defaults = %+v", def)
	}
	if err := def.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNewRejectsNilDeps(t *testing.T) {
	tr := instantTransport(0, nil)
	if _, err := New(Params{}, Faults{}, nil, tr); err == nil {
		t.Error("nil rng accepted")
	}
	if _, err := New(Params{}, Faults{}, workload.Stream(1, 0), nil); err == nil {
		t.Error("nil transport accepted")
	}
	if _, err := New(Params{Retries: -1}, Faults{}, workload.Stream(1, 0), tr); err == nil {
		t.Error("invalid params accepted")
	}
}
