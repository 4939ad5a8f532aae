package live

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"radar/internal/ctrlplane"
	"radar/internal/workload"
)

// testParams is a fast retry schedule for client tests: jittered waits in
// [20,40]ms then [40,80]ms (doubling, capped).
func testParams() ctrlplane.Params {
	return ctrlplane.Params{
		Timeout:     time.Second,
		Retries:     3,
		BackoffBase: 40 * time.Millisecond,
		BackoffCap:  80 * time.Millisecond,
	}
}

func testClient(t *testing.T, budget int) *rpcClient {
	t.Helper()
	c := newRPCClient(testParams(), workload.Stream(1, 2), budget)
	t.Cleanup(c.Close)
	return c
}

// flagReply is a test reply type with two flags; every body is valid.
type flagReply struct {
	OK   bool `json:"ok"`
	Done bool `json:"done"`
}

func (*flagReply) Validate() error { return nil }

// flakyServer closes the connection without a reply on the first fail
// attempts, then answers 200 with the given body.
func flakyServer(t *testing.T, fail int, body string) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= int64(fail) {
			panic(http.ErrAbortHandler)
		}
		w.Write([]byte(body))
	}))
	t.Cleanup(srv.Close)
	return srv, &hits
}

// TestClientRetriesFlakyPeer: a peer failing its first two attempts is
// retried through the capped, jittered backoff schedule and eventually
// answers; the elapsed time sits inside the schedule's analytic bounds.
func TestClientRetriesFlakyPeer(t *testing.T) {
	srv, hits := flakyServer(t, 2, `{"ok":true}`)
	c := testClient(t, 0)
	var resp flagReply
	start := time.Now()
	if err := c.get(srv.URL, "/x", nil, &resp); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if !resp.OK {
		t.Fatal("reply not decoded")
	}
	if got := hits.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want 3", got)
	}
	attempts, retries, lost := c.Stats()
	if attempts != 3 || retries != 2 || lost != 0 {
		t.Fatalf("Stats() = (%d, %d, %d), want (3, 2, 0)", attempts, retries, lost)
	}
	// Two jittered waits: [20,40]ms + [40,80]ms. Loopback round-trips are
	// microseconds, so elapsed is essentially the backoff sum.
	if elapsed < 60*time.Millisecond {
		t.Fatalf("retries completed in %v, faster than the %v backoff floor", elapsed, 60*time.Millisecond)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("retries took %v, far beyond the %v backoff ceiling", elapsed, 120*time.Millisecond)
	}
}

// TestClientExhaustsSchedule: a peer that never recovers costs exactly
// 1+Retries attempts and surfaces as a typed ErrRPCLost.
func TestClientExhaustsSchedule(t *testing.T) {
	srv, hits := flakyServer(t, 1<<30, "")
	c := testClient(t, 0)
	err := c.call(srv.URL, "/x", &MarkMsg{Host: 0}, nil)
	if !errors.Is(err, ErrRPCLost) {
		t.Fatalf("err = %v, want ErrRPCLost", err)
	}
	var re *RPCError
	if !errors.As(err, &re) || re.Attempts != 4 || re.Op != "/x" {
		t.Fatalf("RPCError = %+v, want 4 attempts on /x", re)
	}
	if got := hits.Load(); got != 4 {
		t.Fatalf("server saw %d attempts, want 4", got)
	}
	if _, _, lost := c.Stats(); lost != 1 {
		t.Fatalf("lost counter = %d, want 1", lost)
	}
}

// TestClientRetryBudget: with a one-token budget, the first failing call
// spends its token on one retry and the next failing call is cut short
// with a typed ErrRetryBudget — the peer stops soaking up backoff rounds.
func TestClientRetryBudget(t *testing.T) {
	srv, hits := flakyServer(t, 1<<30, "")
	c := testClient(t, 1)
	err := c.call(srv.URL, "/x", &MarkMsg{Host: 0}, nil)
	// First call: one retry allowed (bucket 1.0 -> 0), then denied.
	if !errors.Is(err, ErrRetryBudget) {
		t.Fatalf("first call err = %v, want ErrRetryBudget", err)
	}
	var re *RPCError
	if !errors.As(err, &re) || re.Attempts != 2 {
		t.Fatalf("RPCError = %+v, want 2 attempts", re)
	}
	after := hits.Load()
	// Second call: earns 0.1, still below a whole token — no retry at all.
	err = c.call(srv.URL, "/x", &MarkMsg{Host: 0}, nil)
	if !errors.Is(err, ErrRetryBudget) {
		t.Fatalf("second call err = %v, want ErrRetryBudget", err)
	}
	if got := hits.Load() - after; got != 1 {
		t.Fatalf("second call issued %d attempts, want 1 (budget dry)", got)
	}
	if got := c.BudgetDenials(); got != 2 {
		t.Fatalf("BudgetDenials() = %d, want 2", got)
	}
}

// TestClientPoisonedPeer: a poisoned base URL fails before any attempt —
// the partitioned message never leaves the node.
func TestClientPoisonedPeer(t *testing.T) {
	c := testClient(t, 0)
	err := c.call(poisonURL, "/x", &MarkMsg{Host: 0}, nil)
	if !errors.Is(err, ErrPeerUnreachable) {
		t.Fatalf("err = %v, want ErrPeerUnreachable", err)
	}
	if attempts, _, _ := c.Stats(); attempts != 0 {
		t.Fatalf("poisoned call issued %d attempts, want 0", attempts)
	}
}

// TestClientDedupReplayOnRetry: when a reply is lost in transit the
// client re-issues the same message ID, and the receiver's dedup replays
// the recorded verdict instead of executing twice — at-most-once effect,
// at-least-once delivery.
func TestClientDedupReplayOnRetry(t *testing.T) {
	d := newCallDedup(4)
	var execs atomic.Int64
	var drops atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var msg struct {
			MsgID uint64 `json:"msg_id"`
		}
		if err := json.NewDecoder(r.Body).Decode(&msg); err != nil {
			t.Errorf("bad body: %v", err)
		}
		reply := d.do(msg.MsgID, func() []byte {
			execs.Add(1)
			return []byte(`{"done":true}`)
		})
		if drops.Add(1) == 1 {
			// Execute, then lose the reply: the client cannot tell this
			// from a never-delivered request.
			panic(http.ErrAbortHandler)
		}
		w.Write(reply)
	}))
	t.Cleanup(srv.Close)

	c := testClient(t, 0)
	var resp flagReply
	type createReq struct {
		MsgID uint64 `json:"msg_id"`
	}
	if err := c.call(srv.URL, "/rpc/createobj", &createReq{MsgID: 77}, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Done {
		t.Fatal("verdict not replayed to the retry")
	}
	if got := execs.Load(); got != 1 {
		t.Fatalf("handler executed %d times across the retry, want 1", got)
	}
	if got := d.Executed(); got != 1 {
		t.Fatalf("dedup Executed() = %d, want 1", got)
	}
}

// TestClientCloseAbortsBackoff: Close during a failing call's backoff
// returns promptly instead of sitting out the schedule — a killed node
// must not linger.
func TestClientCloseAbortsBackoff(t *testing.T) {
	srv, _ := flakyServer(t, 1<<30, "")
	params := testParams()
	params.BackoffBase = 10 * time.Second
	params.BackoffCap = 10 * time.Second
	c := newRPCClient(params, workload.Stream(1, 2), 0)
	done := make(chan error, 1)
	go func() { done <- c.call(srv.URL, "/x", &MarkMsg{Host: 0}, nil) }()
	time.Sleep(50 * time.Millisecond) // let it fail once and enter backoff
	start := time.Now()
	c.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("closed call reported success")
		}
		if waited := time.Since(start); waited > time.Second {
			t.Fatalf("call outlived Close by %v", waited)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("call still blocked 2s after Close")
	}
}
