// Package ctrlplane is the unreliable control plane: it carries the
// protocol's CreateObj/Offload handshakes and redirector notifications as
// request/reply message legs over the simulated network, injecting message
// loss, duplication, and extra delay from the fault DSL's drop/dup/cdelay
// terms, and makes RPCs correct under those faults with per-attempt
// timeouts, capped exponential backoff with deterministic jitter, a
// bounded retry budget, and message-ID-keyed idempotence (at-most-once
// callee execution, cached-result replay for duplicates and retries).
//
// The simulation resolves handshakes inline at decision time — faithful to
// the paper, where CreateObj is a blocking synchronous exchange — but every
// leg is charged through the network at its true send time and the
// completion time reflects delivery latency, timeouts, and backoff, so a
// lossy control plane slows and defers placement work exactly as a real
// one would.
//
// Determinism contract: all stochastic draws come from a *rand.Rand the
// simulation derives from the master seed on a stream reserved for control
// messages (disjoint from workload and fault-timeline streams). The plane
// is only constructed when the fault spec arms message faults, so
// fault-free runs never touch it and stay bit-identical to a build without
// this package.
package ctrlplane

import (
	"fmt"
	"math/rand"
	"time"

	"radar/internal/topology"
)

// Params tunes RPC retry behavior. The zero value selects the documented
// defaults via WithDefaults.
type Params struct {
	// Timeout is the per-attempt RPC timeout: if the reply has not arrived
	// this long after the attempt's request was sent, the caller retries
	// (default 1s).
	Timeout time.Duration
	// Retries is the retry budget after the first attempt; an RPC is
	// reported Lost after 1+Retries failed attempts (default 3).
	Retries int
	// BackoffBase is the first retry's backoff ceiling; successive
	// attempts double it up to BackoffCap. The actual wait is a
	// deterministic jitter in [base/2, base] drawn from the control-plane
	// stream (defaults 200ms, capped at 2s).
	BackoffBase time.Duration
	BackoffCap  time.Duration
}

// WithDefaults returns p with zero fields replaced by the defaults.
func (p Params) WithDefaults() Params {
	if p.Timeout == 0 {
		p.Timeout = time.Second
	}
	if p.Retries == 0 {
		p.Retries = 3
	}
	if p.BackoffBase == 0 {
		p.BackoffBase = 200 * time.Millisecond
	}
	if p.BackoffCap == 0 {
		p.BackoffCap = 2 * time.Second
	}
	return p
}

// Validate rejects nonsensical parameters. It accepts the zero value
// (resolved by WithDefaults) but not negative or inconsistent settings.
func (p Params) Validate() error {
	if p.Timeout < 0 {
		return fmt.Errorf("ctrlplane: negative timeout %v", p.Timeout)
	}
	if p.Retries < 0 {
		return fmt.Errorf("ctrlplane: negative retry budget %d", p.Retries)
	}
	if p.BackoffBase < 0 || p.BackoffCap < 0 {
		return fmt.Errorf("ctrlplane: negative backoff %v/%v", p.BackoffBase, p.BackoffCap)
	}
	if p.BackoffBase > 0 && p.BackoffCap > 0 && p.BackoffCap < p.BackoffBase {
		return fmt.Errorf("ctrlplane: backoff cap %v below base %v", p.BackoffCap, p.BackoffBase)
	}
	return nil
}

// Backoff is the plane's retry wait schedule — capped exponential growth
// with jitter drawn uniformly from [b/2, b] — extracted as a standalone
// value so other control-plane transports (the live HTTP client) back off
// exactly as the simulated plane does. The zero value waits zero forever;
// obtain one from Params.NewBackoff.
type Backoff struct {
	next time.Duration
	cap  time.Duration
}

// NewBackoff returns the retry schedule for p, starting at BackoffBase and
// doubling up to BackoffCap. p should be resolved with WithDefaults first.
func (p Params) NewBackoff() Backoff {
	return Backoff{next: p.BackoffBase, cap: p.BackoffCap}
}

// Wait returns the jittered wait before the next retry and advances the
// schedule. rng supplies the jitter draw; the plane passes its reserved
// control stream, live transports pass any seeded source.
func (b *Backoff) Wait(rng *rand.Rand) time.Duration {
	w := jitteredWait(b.next, rng)
	if b.next *= 2; b.next > b.cap {
		b.next = b.cap
	}
	return w
}

// jitteredWait returns a jittered backoff in [b/2, b].
func jitteredWait(b time.Duration, rng *rand.Rand) time.Duration {
	if b <= 0 {
		return 0
	}
	half := b / 2
	return half + time.Duration(rng.Int63n(int64(half)+1))
}

// Faults are the message-fault terms from the schedule DSL.
type Faults struct {
	// Drop is the per-leg loss probability.
	Drop float64
	// Dup is the per-delivered-leg duplication probability; copies are
	// charged to the network and absorbed by message-ID dedupe.
	Dup float64
	// Delay is the maximum extra per-leg delay (uniform in [0, Delay]).
	Delay time.Duration
}

// Stats counts control-plane activity for the run report.
type Stats struct {
	// Attempts is the total request attempts (first tries + retries).
	Attempts int64
	// Retries is the subset of Attempts after the first try of an RPC.
	Retries int64
	// Timeouts counts attempts whose reply missed the per-attempt timeout.
	Timeouts int64
	// Lost counts RPCs abandoned after the full retry budget.
	Lost int64
	// DroppedLegs counts message legs that failed to arrive (injected
	// drops and severed paths).
	DroppedLegs int64
	// DupLegs counts injected duplicate legs.
	DupLegs int64
	// NotifiesSent / NotifiesLost count one-way notifications.
	NotifiesSent int64
	NotifiesLost int64
}

// Transport delivers one message leg from one node toward another at the
// given virtual time, charging it to the network, and reports the arrival
// time and whether it physically arrived (a severed path strands the
// message at the partition boundary). The simulation supplies this; the
// plane layers probabilistic faults on top.
type Transport func(now time.Duration, from, to topology.NodeID) (arrival time.Duration, ok bool)

// Plane carries control RPCs and notifications with injected faults.
// It is not safe for concurrent use; the single-threaded event loop of one
// simulation owns it.
type Plane struct {
	params    Params
	faults    Faults
	rng       *rand.Rand
	transport Transport
	// results caches the callee verdict of every message ID whose RPC
	// executed and then ended Lost, so a deferred re-issue with the same
	// token replays it: the callee runs at most once per ID. A call's own
	// retries never come here: they are inside one Call, which holds the
	// verdict in a local, and a confirmed call leaves no entry.
	results map[uint64]bool
	nextID  uint64
	stats   Stats
}

// New builds a plane. params are resolved with WithDefaults and must
// validate; rng must be non-nil (the reserved control-message stream).
func New(params Params, faults Faults, rng *rand.Rand, transport Transport) (*Plane, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, fmt.Errorf("ctrlplane: nil rng")
	}
	if transport == nil {
		return nil, fmt.Errorf("ctrlplane: nil transport")
	}
	return &Plane{
		params:    params.WithDefaults(),
		faults:    faults,
		rng:       rng,
		transport: transport,
		results:   make(map[uint64]bool),
	}, nil
}

// Stats returns a snapshot of the activity counters.
func (p *Plane) Stats() Stats { return p.stats }

// NextToken allocates a fresh message ID.
func (p *Plane) NextToken() uint64 {
	p.nextID++
	return p.nextID
}

// Call executes an at-most-once request/reply RPC from caller to callee.
// token 0 allocates a fresh message ID; passing a previous Call's returned
// token re-issues that RPC with the same identity, so a retry of a Lost
// call whose request actually reached the callee replays the cached
// verdict instead of re-executing (no double-create, no double-count).
//
// exec is the callee-side handler; it runs at most once per token, at the
// virtual arrival time of the first surviving request leg, and its verdict
// is what the reply carries. Call returns the verdict, the token (for
// deferred re-issue), the caller-side completion time (reply arrival, or
// the post-backoff give-up time), and ok=false when the retry budget was
// exhausted — the caller cannot distinguish "never executed" from
// "executed, reply lost"; only a same-token retry or reconciliation can.
func (p *Plane) Call(now time.Duration, from, to topology.NodeID, token uint64, exec func(at time.Duration) bool) (verdict bool, tok uint64, doneAt time.Duration, ok bool) {
	// The verdict lives here for the length of the call: a re-issue takes
	// its token's out of the cache, and a call that ends Lost puts it back.
	var res, executed bool
	if token == 0 {
		token = p.NextToken()
	} else if res, executed = p.results[token]; executed {
		delete(p.results, token)
	}
	t := now
	backoff := p.params.NewBackoff()
	for attempt := 0; attempt <= p.params.Retries; attempt++ {
		p.stats.Attempts++
		if attempt > 0 {
			p.stats.Retries++
		}
		deadline := t + p.params.Timeout
		reqAt, reqOK := p.leg(t, from, to)
		if reqOK {
			if !executed {
				res, executed = exec(reqAt), true
			}
			if replyAt, replyOK := p.leg(reqAt, to, from); replyOK && replyAt <= deadline {
				// Confirmed: the caller will never reuse this token, so
				// nothing is cached.
				return res, token, replyAt, true
			}
		}
		p.stats.Timeouts++
		t = deadline + backoff.Wait(p.rng)
	}
	if executed {
		p.results[token] = res
	}
	p.stats.Lost++
	return false, token, t, false
}

// Notify sends a one-way, fire-and-forget notification; apply runs at the
// arrival time if the single leg survives. Lost notifications are the
// orphan source that anti-entropy reconciliation heals later.
func (p *Plane) Notify(now time.Duration, from, to topology.NodeID, apply func(at time.Duration)) bool {
	p.stats.NotifiesSent++
	at, ok := p.leg(now, from, to)
	if !ok {
		p.stats.NotifiesLost++
		return false
	}
	apply(at)
	return true
}

// leg delivers one message leg with fault injection. Loopback legs
// (from == to) are in-memory and exempt from faults. Draw order per leg is
// fixed — drop, then delay, then dup, each drawn only when its term is
// set — so a given schedule consumes the control stream deterministically.
func (p *Plane) leg(now time.Duration, from, to topology.NodeID) (arrival time.Duration, ok bool) {
	if from == to {
		return now, true
	}
	arrival, ok = p.transport(now, from, to)
	if !ok {
		p.stats.DroppedLegs++
		return arrival, false
	}
	if p.faults.Drop > 0 && p.rng.Float64() < p.faults.Drop {
		p.stats.DroppedLegs++
		return arrival, false
	}
	if p.faults.Delay > 0 {
		arrival += time.Duration(p.rng.Int63n(int64(p.faults.Delay) + 1))
	}
	if p.faults.Dup > 0 && p.rng.Float64() < p.faults.Dup {
		p.stats.DupLegs++
		p.transport(now, from, to) // charge the duplicate; dedupe absorbs it
	}
	return arrival, true
}
