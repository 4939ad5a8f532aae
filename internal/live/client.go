package live

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"radar/internal/ctrlplane"
)

// ErrRPCLost reports a control RPC abandoned after the full retry budget —
// the live counterpart of ctrlplane's Lost outcome: the caller cannot
// distinguish "never executed" from "executed, reply lost"; message-ID
// idempotence makes a same-ID re-issue safe.
var ErrRPCLost = errors.New("live: rpc lost after retry budget")

// ErrRetryBudget reports an RPC whose retries were cut short because the
// target peer's retry budget ran dry: a peer that keeps failing stops
// absorbing rounds of backoff-and-retry from this client until successful
// calls refill its bucket.
var ErrRetryBudget = errors.New("live: peer retry budget exhausted")

// ErrPeerUnreachable reports an RPC refused without any attempt because the
// target's URL is poisoned (chaos partition) — the live analog of a cut
// link: the message never leaves the node.
var ErrPeerUnreachable = errors.New("live: peer unreachable (partitioned)")

// RPCError is the typed failure of a control RPC: which call, against which
// base URL, how many attempts were spent, and why it ultimately failed
// (ErrRPCLost, ErrRetryBudget, or ErrPeerUnreachable via errors.Is).
type RPCError struct {
	Op       string // HTTP path of the call
	Target   string // base URL of the peer
	Attempts int    // attempts actually issued
	Err      error
}

// Error implements error.
func (e *RPCError) Error() string {
	return fmt.Sprintf("live: rpc %s to %s failed after %d attempt(s): %v", e.Op, e.Target, e.Attempts, e.Err)
}

// Unwrap exposes the cause for errors.Is.
func (e *RPCError) Unwrap() error { return e.Err }

// retryBudget is a per-peer token bucket in the classic retry-budget shape:
// every first attempt against a peer earns it a fraction of a token, every
// retry spends a whole one, and an empty bucket suppresses further retries
// (first attempts always go through). A healthy peer never notices the
// budget; a dying one stops soaking up rounds of backoff from every caller.
type retryBudget struct {
	cap float64

	mu     sync.Mutex
	tokens map[string]float64
}

// retryBudgetEarn is the bucket refill per first attempt (the conventional
// 10% retry ratio).
const retryBudgetEarn = 0.1

func newRetryBudget(tokens int) *retryBudget {
	if tokens <= 0 {
		return nil // disabled: unlimited retries (driver-paced default)
	}
	return &retryBudget{cap: float64(tokens), tokens: make(map[string]float64)}
}

// onAttempt credits the peer for a fresh call. Buckets start full.
func (b *retryBudget) onAttempt(target string) {
	if b == nil {
		return
	}
	b.mu.Lock()
	t, ok := b.tokens[target]
	if !ok {
		t = b.cap
	}
	t += retryBudgetEarn
	if t > b.cap {
		t = b.cap
	}
	b.tokens[target] = t
	b.mu.Unlock()
}

// allowRetry spends one token toward a retry against the peer, reporting
// whether the bucket had one.
func (b *retryBudget) allowRetry(target string) bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	t, ok := b.tokens[target]
	if !ok {
		t = b.cap
	}
	if t < 1 {
		b.tokens[target] = t
		return false
	}
	b.tokens[target] = t - 1
	return true
}

// rpcClient carries control RPCs over HTTP with the simulated control
// plane's retry discipline, reusing ctrlplane.Params verbatim: a
// per-attempt timeout, a bounded retry budget, and the plane's capped
// exponential backoff with jitter (ctrlplane.Backoff). Transport errors
// and truncated replies are retried; a non-2xx status is a terminal
// protocol answer (no RPC endpoint turns a caller away while it works).
// On top of the per-call schedule, an optional per-peer retry budget
// (free-running mode) cuts retries against a peer that keeps failing.
type rpcClient struct {
	params ctrlplane.Params
	http   *http.Client
	budget *retryBudget

	stopCtx  context.Context
	stopFn   context.CancelFunc
	rngMu    sync.Mutex
	rng      *rand.Rand
	attempts int64
	retries  int64
	lost     int64
	budgeted int64
}

// newRPCClient builds a client from resolved params, a seeded jitter
// source, and a per-peer retry budget of budgetTokens (0 disables it).
func newRPCClient(params ctrlplane.Params, rng *rand.Rand, budgetTokens int) *rpcClient {
	ctx, cancel := context.WithCancel(context.Background())
	return &rpcClient{
		params:  params.WithDefaults(),
		http:    &http.Client{},
		budget:  newRetryBudget(budgetTokens),
		stopCtx: ctx,
		stopFn:  cancel,
		rng:     rng,
	}
}

// Close aborts in-flight calls and backoff waits and releases idle
// connections; subsequent calls fail immediately. A node being stopped or
// killed must not sit out multi-second retry schedules.
func (c *rpcClient) Close() {
	c.stopFn()
	c.http.CloseIdleConnections()
}

// sleep waits d, aborted early by Close.
func (c *rpcClient) sleep(d time.Duration) bool {
	if d <= 0 {
		return c.stopCtx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-c.stopCtx.Done():
		return false
	}
}

// backoffWait sleeps the schedule's next jittered wait.
func (c *rpcClient) backoffWait(b *ctrlplane.Backoff) bool {
	c.rngMu.Lock()
	w := b.Wait(c.rng)
	c.rngMu.Unlock()
	return c.sleep(w)
}

// call POSTs req as JSON to base+path and decodes and validates the JSON
// reply into resp, retrying per the ctrlplane schedule. A nil resp
// discards the body.
func (c *rpcClient) call(base, path string, req any, resp validator) error {
	body := Encode(req)
	return c.roundTrip(base, path, func(ctx context.Context) (*http.Request, error) {
		r, err := http.NewRequestWithContext(ctx, http.MethodPost, base+path, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		r.Header.Set("Content-Type", "application/json")
		return r, nil
	}, resp)
}

// get issues a retried GET with query parameters, decoding and validating
// the JSON reply into resp.
func (c *rpcClient) get(base, path string, query url.Values, resp validator) error {
	u := base + path
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	return c.roundTrip(base, path, func(ctx context.Context) (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	}, resp)
}

// poisonURL is the peer-table entry of a partitioned peer
// (Fleet.SetPartition).
const poisonURL = "poison://partition"

// poisoned reports a peer-table entry rewritten by a chaos partition: the
// partition swallows the message before it is ever sent. No attempt, no
// retry, no budget charge.
func poisoned(base string) bool {
	return !strings.HasPrefix(base, "http://") && !strings.HasPrefix(base, "https://")
}

// fetch GETs base+path once and drains the reply: the data-plane copy it
// serves is best-effort, so there is no retry, only the per-attempt
// timeout, and Close aborts it.
func (c *rpcClient) fetch(base, path string) error {
	if poisoned(base) {
		return &RPCError{Op: path, Target: base, Err: ErrPeerUnreachable}
	}
	ctx, cancel := context.WithTimeout(c.stopCtx, c.params.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
	if err != nil {
		return err
	}
	res, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		return fmt.Errorf("live: GET %s%s: status %d", base, path, res.StatusCode)
	}
	_, err = io.Copy(io.Discard, res.Body)
	return err
}

func (c *rpcClient) roundTrip(base, path string, build func(context.Context) (*http.Request, error), resp validator) error {
	if poisoned(base) {
		return &RPCError{Op: path, Target: base, Err: ErrPeerUnreachable}
	}
	c.budget.onAttempt(base)
	backoff := c.params.NewBackoff()
	attempts := 0
	for attempt := 0; attempt <= c.params.Retries; attempt++ {
		if attempt > 0 {
			if !c.budget.allowRetry(base) {
				atomic.AddInt64(&c.budgeted, 1)
				return &RPCError{Op: path, Target: base, Attempts: attempts, Err: ErrRetryBudget}
			}
			atomic.AddInt64(&c.retries, 1)
			if !c.backoffWait(&backoff) {
				break // client closed mid-backoff
			}
		}
		atomic.AddInt64(&c.attempts, 1)
		attempts++
		ctx, cancel := context.WithTimeout(c.stopCtx, c.params.Timeout)
		req, err := build(ctx)
		if err != nil {
			cancel()
			return err
		}
		res, err := c.http.Do(req)
		if err != nil {
			cancel()
			if c.stopCtx.Err() != nil {
				break // client closed: abandon, don't spin the schedule
			}
			continue // transport failure: retry
		}
		data, err := io.ReadAll(res.Body)
		res.Body.Close()
		cancel()
		if err != nil {
			continue // truncated reply: retry
		}
		if res.StatusCode != http.StatusOK {
			return fmt.Errorf("live: %s %s: status %d: %s", req.Method, req.URL.Path, res.StatusCode, data)
		}
		return decodeReply(data, resp)
	}
	atomic.AddInt64(&c.lost, 1)
	return &RPCError{Op: path, Target: base, Attempts: attempts, Err: ErrRPCLost}
}

// Stats returns (attempts, retries, lost) counters.
func (c *rpcClient) Stats() (attempts, retries, lost int64) {
	return atomic.LoadInt64(&c.attempts), atomic.LoadInt64(&c.retries), atomic.LoadInt64(&c.lost)
}

// BudgetDenials returns how many calls were cut short by the per-peer
// retry budget.
func (c *rpcClient) BudgetDenials() int64 { return atomic.LoadInt64(&c.budgeted) }
