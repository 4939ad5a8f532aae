package check

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"radar/internal/live"
	"radar/internal/topology"
)

// stubNode is a mutable census/stats endpoint pair behind a test server.
type stubNode struct {
	mu     sync.Mutex
	census live.CensusReply
	stats  live.StatsReply
	srv    *httptest.Server
}

func newStubNode(t *testing.T) *stubNode {
	n := &stubNode{}
	mux := http.NewServeMux()
	mux.HandleFunc(live.PathCensus, func(w http.ResponseWriter, r *http.Request) {
		n.mu.Lock()
		defer n.mu.Unlock()
		w.Write(live.Encode(&n.census))
	})
	mux.HandleFunc(live.PathStats, func(w http.ResponseWriter, r *http.Request) {
		n.mu.Lock()
		defer n.mu.Unlock()
		w.Write(live.Encode(&n.stats))
	})
	n.srv = httptest.NewServer(mux)
	t.Cleanup(n.srv.Close)
	return n
}

func (n *stubNode) set(fn func(*live.CensusReply, *live.StatsReply)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	fn(&n.census, &n.stats)
}

// testChecker judges the stub fleet at urls, node 0 its redirector, with a
// 40ms convergence budget.
func testChecker(urls ...string) *checker {
	return newChecker(urls, []topology.NodeID{0}, 40*time.Millisecond)
}

// TestCheckerCleanFleet: a healthy, stable fleet produces no violations.
func TestCheckerCleanFleet(t *testing.T) {
	a, b := newStubNode(t), newStubNode(t)
	a.set(func(c *live.CensusReply, s *live.StatsReply) {
		c.TotalReplicas, c.MaxReplicas = 8, 2
		s.BootID = 1
	})
	b.set(func(c *live.CensusReply, s *live.StatsReply) { s.BootID = 2 })
	c := testChecker(a.srv.URL, b.srv.URL)
	for i := 0; i < 3; i++ {
		c.scrape()
		// Counters move forward between scrapes, as on a live node.
		a.set(func(_ *live.CensusReply, s *live.StatsReply) { s.TotalServed++; s.MeasureTicks++ })
	}
	if rep := c.Report(); !rep.OK() || rep.Scrapes != 3 {
		t.Fatalf("clean fleet: %s", rep)
	}
}

// TestCheckerLostObject: a zero-replica object persisting past the
// convergence budget (with no crash window open) is a violation — and the
// same condition inside a crash window is excused.
func TestCheckerLostObject(t *testing.T) {
	a := newStubNode(t)
	a.set(func(c *live.CensusReply, _ *live.StatsReply) {
		c.Zero = 1
	})
	c := testChecker(a.srv.URL)
	c.scrape() // onset
	time.Sleep(60 * time.Millisecond)
	c.scrape() // past budget
	rep := c.Report()
	if rep.OK() || rep.Violations[0].Rule != RuleLostObject {
		t.Fatalf("persistent zero-replica census not flagged: %s", rep)
	}

	// Same scenario with an open crash window: excused.
	c2 := testChecker(a.srv.URL)
	c2.OnKill(0, time.Now())
	c2.scrape()
	time.Sleep(60 * time.Millisecond)
	c2.scrape()
	if rep := c2.Report(); !rep.OK() {
		t.Fatalf("crash-window zero-replica census flagged: %s", rep)
	}
}

// TestCheckerBelowFloorHeals: a floor deficit that heals within the
// budget is fine.
func TestCheckerBelowFloorHeals(t *testing.T) {
	a := newStubNode(t)
	a.set(func(c *live.CensusReply, _ *live.StatsReply) { c.BelowFloor = 2 })
	c := testChecker(a.srv.URL)
	c.scrape()
	a.set(func(cr *live.CensusReply, _ *live.StatsReply) { cr.BelowFloor = 0 })
	time.Sleep(60 * time.Millisecond)
	c.scrape()
	if rep := c.Report(); !rep.OK() {
		t.Fatalf("healed floor deficit flagged: %s", rep)
	}
}

// TestCheckerReplicaCeiling: more replicas of one object than live nodes,
// persisting past the convergence budget, is flagged — even while the
// implicated node's crash window is still open (stale registrations must
// be purged on the mark, not on the recovery).
func TestCheckerReplicaCeiling(t *testing.T) {
	a := newStubNode(t)
	a.set(func(c *live.CensusReply, _ *live.StatsReply) {
		c.TotalReplicas, c.MaxReplicas = 3, 3
	})
	c := testChecker(a.srv.URL)
	c.scrape() // onset: ceiling is 1 live node here, 3 recorded replicas
	time.Sleep(60 * time.Millisecond)
	c.scrape()
	rep := c.Report()
	if rep.OK() || rep.Violations[0].Rule != RuleOverMax {
		t.Fatalf("persistent over-ceiling census not flagged: %s", rep)
	}
}

// TestCheckerCounterMonotone: a counter going backward within one boot is
// a violation; the same reset under a new boot ID is a legitimate
// restart.
func TestCheckerCounterMonotone(t *testing.T) {
	a := newStubNode(t)
	a.set(func(_ *live.CensusReply, s *live.StatsReply) { s.BootID, s.TotalServed = 1, 100 })
	c := testChecker(a.srv.URL)
	c.scrape()
	a.set(func(_ *live.CensusReply, s *live.StatsReply) { s.TotalServed = 50 })
	c.scrape()
	rep := c.Report()
	if rep.OK() || rep.Violations[0].Rule != RuleCounter {
		t.Fatalf("backward counter not flagged: %s", rep)
	}

	b := newStubNode(t)
	b.set(func(_ *live.CensusReply, s *live.StatsReply) { s.BootID, s.TotalServed = 1, 100 })
	c2 := testChecker(b.srv.URL)
	c2.scrape()
	b.set(func(_ *live.CensusReply, s *live.StatsReply) { s.BootID, s.TotalServed = 2, 0 })
	c2.scrape()
	if rep := c2.Report(); !rep.OK() {
		t.Fatalf("reboot counter reset flagged: %s", rep)
	}
}

// TestCheckerUnreachable: consecutive failed scrapes of a node are a
// violation outside a crash window and excused inside one.
func TestCheckerUnreachable(t *testing.T) {
	a := newStubNode(t)
	dead := httptest.NewServer(nil)
	deadURL := dead.URL
	dead.Close()

	c := testChecker(a.srv.URL, deadURL)
	for i := 0; i < maxUnreachable; i++ {
		c.scrape()
	}
	rep := c.Report()
	if rep.OK() || rep.Violations[0].Rule != RuleUnreachable || rep.Violations[0].Node != 1 {
		t.Fatalf("unreachable node not flagged: %s", rep)
	}

	c2 := testChecker(a.srv.URL, deadURL)
	c2.OnKill(1, time.Now())
	for i := 0; i < maxUnreachable; i++ {
		c2.scrape()
	}
	if rep := c2.Report(); !rep.OK() {
		t.Fatalf("killed node's unreachability flagged: %s", rep)
	}
}

// TestCheckFailures: failed requests inside crash windows (plus the
// convergence grace) pass; strays are flagged.
func TestCheckFailures(t *testing.T) {
	c := testChecker("http://invalid")
	kill := time.Now()
	c.OnKill(0, kill)
	c.OnRestart(0, kill.Add(20*time.Millisecond))
	inside := kill.Add(10 * time.Millisecond)
	grace := kill.Add(50 * time.Millisecond)  // within 40ms convergence of restart
	stray := kill.Add(-10 * time.Millisecond) // before the window
	c.checkFailures([]time.Time{inside, grace})
	if rep := c.Report(); !rep.OK() {
		t.Fatalf("confined failures flagged: %s", rep)
	}
	c.checkFailures([]time.Time{stray})
	rep := c.Report()
	if rep.OK() || rep.Violations[0].Rule != RuleFailures {
		t.Fatalf("stray failure not flagged: %s", rep)
	}
}
