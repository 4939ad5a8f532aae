// Package check is the free-running mode's verification instrument: a
// continuous invariant checker that scrapes a live fleet's census and
// stats endpoints and asserts the properties that replace sequence
// equality once nodes self-schedule. Driver-paced runs are verified by
// byte-identity with the simulator; free-running runs are verified here —
// watermark bounds hold within a convergence budget, the replica floor is
// repaired after recoveries, no object is lost, counters only move
// forward within a boot, and request failures stay confined to crash
// windows.
//
// The checker learns about crashes through OnKill/OnRestart (it
// satisfies chaos.Observer), so everything that goes wrong while a node
// is legitimately dead — unreachable scrapes, failed requests, a sagging
// floor — is excused until the convergence budget after recovery runs
// out.
package check

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"radar/internal/live"
	"radar/internal/topology"
)

// Config tunes the checker.
type Config struct {
	// URLs are the fleet's node base URLs, indexed by node ID.
	URLs []string
	// Redirectors are the nodes whose census endpoints own objects
	// (sim.RedirectorLocs).
	Redirectors []topology.NodeID
	// Interval is the scrape period (default 250ms).
	Interval time.Duration
	// Convergence is the budget within which a violated bound must heal:
	// a below-floor or zero-replica census older than this (outside crash
	// windows) is a violation, as is a request failure later than this
	// after the last recovery. Default 5s.
	Convergence time.Duration
	// MaxUnreachable is how many consecutive failed scrapes of a node not
	// in a crash window count as a violation (default 4).
	MaxUnreachable int
}

func (c Config) withDefaults() Config {
	if c.Interval == 0 {
		c.Interval = 250 * time.Millisecond
	}
	if c.Convergence == 0 {
		c.Convergence = 5 * time.Second
	}
	if c.MaxUnreachable == 0 {
		c.MaxUnreachable = 4
	}
	return c
}

// Violation is one observed invariant breach.
type Violation struct {
	// At is when the checker observed it.
	At time.Time
	// Rule names the violated invariant.
	Rule string
	// Node is the implicated node, -1 for fleet-wide rules.
	Node int
	// Detail explains the observation.
	Detail string
}

func (v Violation) String() string {
	if v.Node >= 0 {
		return fmt.Sprintf("[%s] node %d: %s", v.Rule, v.Node, v.Detail)
	}
	return fmt.Sprintf("[%s] %s", v.Rule, v.Detail)
}

// Rule names.
const (
	RuleBelowFloor  = "replica-floor"
	RuleLostObject  = "lost-object"
	RuleOverMax     = "replica-ceiling"
	RuleCounter     = "counter-monotone"
	RuleUnreachable = "unreachable"
	RuleFailures    = "failure-confinement"
)

// Report is the checker's verdict: every violation observed, plus the
// scrape count as evidence the checker actually ran.
type Report struct {
	Scrapes    int
	Violations []Violation
}

// OK reports a clean run.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

func (r *Report) String() string {
	if r.OK() {
		return fmt.Sprintf("check: OK (%d scrapes, 0 violations)", r.Scrapes)
	}
	s := fmt.Sprintf("check: %d violations in %d scrapes:", len(r.Violations), r.Scrapes)
	for _, v := range r.Violations {
		s += "\n  " + v.String()
	}
	return s
}

// window is one crash window: [start, end], end zero while open.
type window struct {
	node  topology.NodeID
	start time.Time
	end   time.Time
}

// nodeState is the checker's per-node scrape memory.
type nodeState struct {
	haveStats   bool
	stats       live.StatsReply
	unreachable int
}

// redState is per-redirector condition-onset bookkeeping.
type redState struct {
	belowSince time.Time
	zeroSince  time.Time
	overSince  time.Time
}

// Checker scrapes and judges one fleet. Create with New, feed crash
// windows via OnKill/OnRestart (wire it as the chaos controller's
// Observer), Run until the experiment ends, then Report.
type Checker struct {
	cfg    Config
	client *http.Client

	mu         sync.Mutex
	windows    []window
	nodes      []nodeState
	reds       map[topology.NodeID]*redState
	scrapes    int
	violations []Violation
}

// New builds a checker.
func New(cfg Config) *Checker {
	cfg = cfg.withDefaults()
	c := &Checker{
		cfg:    cfg,
		client: &http.Client{Timeout: 2 * time.Second},
		nodes:  make([]nodeState, len(cfg.URLs)),
		reds:   make(map[topology.NodeID]*redState, len(cfg.Redirectors)),
	}
	for _, r := range cfg.Redirectors {
		c.reds[r] = &redState{}
	}
	return c
}

// OnKill and OnRestart make the checker a chaos controller Observer:
// applied lifecycle actions become crash windows. OnKill opens one for
// node n.
func (c *Checker) OnKill(n topology.NodeID, at time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.windows = append(c.windows, window{node: n, start: at})
}

// OnRestart closes node n's open crash window.
func (c *Checker) OnRestart(n topology.NodeID, at time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := len(c.windows) - 1; i >= 0; i-- {
		if c.windows[i].node == n && c.windows[i].end.IsZero() {
			c.windows[i].end = at
			return
		}
	}
	// A restart without a recorded kill still bounds confinement checks.
	c.windows = append(c.windows, window{node: n, start: at, end: at})
}

// inWindow reports whether t falls inside any crash window, extended by
// the convergence grace after its close. Callers hold c.mu.
func (c *Checker) inWindow(t time.Time, node topology.NodeID, anyNode bool) bool {
	for _, w := range c.windows {
		if !anyNode && w.node != node {
			continue
		}
		if t.Before(w.start) {
			continue
		}
		if w.end.IsZero() || !t.After(w.end.Add(c.cfg.Convergence)) {
			return true
		}
	}
	return false
}

// openWindows reports whether any crash window is open or closed less
// than the convergence budget ago. Callers hold c.mu.
func (c *Checker) openWindows(now time.Time) bool {
	for _, w := range c.windows {
		if w.end.IsZero() || !now.After(w.end.Add(c.cfg.Convergence)) {
			return true
		}
	}
	return false
}

// liveNodes counts nodes without an open crash window. Callers hold c.mu.
func (c *Checker) liveNodes() int {
	down := map[topology.NodeID]bool{}
	for _, w := range c.windows {
		if w.end.IsZero() {
			down[w.node] = true
		}
	}
	return len(c.cfg.URLs) - len(down)
}

// Run scrapes every Interval until ctx is done.
func (c *Checker) Run(ctx context.Context) {
	t := time.NewTicker(c.cfg.Interval)
	defer t.Stop()
	defer c.client.CloseIdleConnections()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			c.Scrape()
		}
	}
}

// AwaitFloor polls the redirectors' censuses until no object sits below
// the replica floor (or with zero replicas), so invariant checking starts
// from a converged fleet. It gives up after timeout.
func AwaitFloor(ctx context.Context, urls []string, redirectors []topology.NodeID, timeout time.Duration) error {
	client := &http.Client{Timeout: 2 * time.Second}
	defer client.CloseIdleConnections()
	deadline := time.Now().Add(timeout)
	for {
		settled := true
		for _, loc := range redirectors {
			var rep live.CensusReply
			if live.Scrape(client, urls[loc]+live.PathCensus, &rep) != nil || rep.BelowFloor > 0 || rep.Zero > 0 {
				settled = false
			}
		}
		if settled {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet did not repair the initial replica-floor deficit within %v", timeout)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// Scrape performs one scrape-and-judge pass. Exposed so tests (and
// one-shot callers) can drive the checker without the ticker.
func (c *Checker) Scrape() {
	now := time.Now()
	type censusResult struct {
		loc topology.NodeID
		rep live.CensusReply
		ok  bool
	}
	var censuses []censusResult
	for _, loc := range c.cfg.Redirectors {
		var rep live.CensusReply
		ok := live.Scrape(c.client, c.cfg.URLs[loc]+live.PathCensus, &rep) == nil
		censuses = append(censuses, censusResult{loc, rep, ok})
	}
	stats := make([]*live.StatsReply, len(c.cfg.URLs))
	for i, u := range c.cfg.URLs {
		var rep live.StatsReply
		if live.Scrape(c.client, u+live.PathStats, &rep) == nil {
			stats[i] = &rep
		}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	c.scrapes++
	for _, cr := range censuses {
		c.judgeCensus(now, cr.loc, cr.rep, cr.ok)
	}
	for i, rep := range stats {
		c.judgeStats(now, topology.NodeID(i), rep)
	}
}

// judgeCensus applies the replica-set rules to one redirector's census.
// Callers hold c.mu.
func (c *Checker) judgeCensus(now time.Time, loc topology.NodeID, rep live.CensusReply, ok bool) {
	rs := c.reds[loc]
	if !ok {
		// Reachability is judged in judgeStats; an unreachable census
		// just freezes the onset clocks (no fresh evidence either way).
		return
	}
	// Bound violations get a convergence budget: the condition may exist
	// transiently (the instants around a crash or repair), but persisting
	// past the budget is a violation. Floor and loss are additionally
	// excused while a crash window is open or fresh — a dead node's
	// deficit is repaired after recovery, not during the outage. The
	// ceiling is not: a stale registration (more replicas recorded than
	// live nodes) must be purged within the budget of the mark even while
	// the node stays down.
	judgeOnset := func(active, excuseWindows bool, since *time.Time, rule, detail string) {
		if !active {
			*since = time.Time{}
			return
		}
		if since.IsZero() {
			*since = now
			return
		}
		if excuseWindows && c.openWindows(now) {
			return
		}
		if now.Sub(*since) > c.cfg.Convergence {
			c.violate(now, rule, int(loc), detail)
			*since = now // re-arm so one stuck condition reports per budget, not per scrape
		}
	}
	n := c.liveNodes()
	judgeOnset(n > 0 && rep.MaxReplicas > n, false, &rs.overSince, RuleOverMax,
		fmt.Sprintf("object with %d replicas, only %d live nodes, past %v budget", rep.MaxReplicas, n, c.cfg.Convergence))
	judgeOnset(rep.BelowFloor > 0, true, &rs.belowSince, RuleBelowFloor,
		fmt.Sprintf("%d objects below replica floor past %v budget", rep.BelowFloor, c.cfg.Convergence))
	judgeOnset(rep.Zero > 0, true, &rs.zeroSince, RuleLostObject,
		fmt.Sprintf("%d objects with zero replicas past %v budget", rep.Zero, c.cfg.Convergence))
}

// judgeStats applies reachability and counter-monotonicity to one node's
// stats scrape. Callers hold c.mu.
func (c *Checker) judgeStats(now time.Time, id topology.NodeID, rep *live.StatsReply) {
	ns := &c.nodes[id]
	if rep == nil {
		if c.inWindow(now, id, false) {
			ns.unreachable = 0
			ns.haveStats = false // counters legitimately reset across the window
			return
		}
		ns.unreachable++
		if ns.unreachable == c.cfg.MaxUnreachable {
			c.violate(now, RuleUnreachable, int(id),
				fmt.Sprintf("%d consecutive failed scrapes outside any crash window", ns.unreachable))
		}
		return
	}
	ns.unreachable = 0
	if ns.haveStats && rep.BootID == ns.stats.BootID {
		type ctr struct {
			name     string
			old, new int64
		}
		for _, x := range []ctr{
			{"create_executions", ns.stats.CreateExecutions, rep.CreateExecutions},
			{"total_served", ns.stats.TotalServed, rep.TotalServed},
			{"rpc_attempts", ns.stats.RPCAttempts, rep.RPCAttempts},
			{"measure_ticks", ns.stats.MeasureTicks, rep.MeasureTicks},
			{"place_ticks", ns.stats.PlaceTicks, rep.PlaceTicks},
			{"census_ticks", ns.stats.CensusTicks, rep.CensusTicks},
		} {
			if x.new < x.old {
				c.violate(now, RuleCounter, int(id),
					fmt.Sprintf("%s went backward (%d -> %d) within boot %d", x.name, x.old, x.new, rep.BootID))
			}
		}
	}
	ns.haveStats = true
	ns.stats = *rep
}

// CheckFailures judges the load generator's failed-request timestamps:
// every failure must fall inside some crash window (any node — a dead
// redirector fails requests for objects it owns regardless of where the
// load is aimed), extended by the convergence grace. Call once after the
// run with (*live.FreeDriver).Failures().
func (c *Checker) CheckFailures(failures []time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sort.Slice(failures, func(i, j int) bool { return failures[i].Before(failures[j]) })
	stray := 0
	var first time.Time
	for _, t := range failures {
		if c.inWindow(t, 0, true) {
			continue
		}
		if stray == 0 {
			first = t
		}
		stray++
	}
	if stray > 0 {
		c.violate(time.Now(), RuleFailures, -1,
			fmt.Sprintf("%d failed requests outside crash windows (first at %s)", stray, first.Format(time.RFC3339Nano)))
	}
}

// violate records one violation. Callers hold c.mu.
func (c *Checker) violate(at time.Time, rule string, node int, detail string) {
	c.violations = append(c.violations, Violation{At: at, Rule: rule, Node: node, Detail: detail})
}

// Report returns the verdict so far.
func (c *Checker) Report() *Report {
	c.mu.Lock()
	defer c.mu.Unlock()
	return &Report{
		Scrapes:    c.scrapes,
		Violations: append([]Violation(nil), c.violations...),
	}
}
