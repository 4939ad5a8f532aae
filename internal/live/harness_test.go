package live_test

// The testing side of the live integration harness: startHarness stands up
// a live.Harness (loopback fleet, readiness wait, the mode's driver) with
// failures turned into t.Fatal and teardown into t.Cleanup.
//
// Every started harness also registers a goroutine-leak check: after the
// fleet is torn down, no goroutine of the live stack (nodes, servers,
// HTTP keep-alives) may survive. Kill and Close reap node goroutines by
// contract; this is the assertion that keeps that contract honest.

import (
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"radar/internal/live"
)

// startHarness is live.NewHarness for tests:
// failures become t.Fatal, the fleet is torn down by t.Cleanup, and a
// goroutine-leak check runs after teardown.
func startHarness(t *testing.T, cfg live.Config) *live.Harness {
	t.Helper()
	// Registered before the Close cleanup: cleanups run LIFO, so the
	// check observes the world after the fleet is gone.
	checkGoroutines(t)
	h, err := live.NewHarness(cfg)
	if err != nil {
		t.Fatalf("starting fleet: %v", err)
	}
	t.Cleanup(h.Close)
	return h
}

// leakSettleTimeout is how long checkGoroutines waits for straggler
// goroutines (closing HTTP conns, exiting tickers) to drain before
// declaring them leaked.
const leakSettleTimeout = 3 * time.Second

// leakPatterns mark a goroutine as belonging to the live stack: node and
// driver code, the fleet's HTTP servers, and client keep-alive loops.
var leakPatterns = []string{
	"radar/internal/live.",
	"net/http.(*Server).Serve",
	"net/http.(*conn).serve",
	"net/http.(*persistConn).readLoop",
	"net/http.(*persistConn).writeLoop",
}

// checkGoroutines registers a cleanup that fails the test if any live
// stack goroutine survives teardown. Register it before the harness (or
// any other cleanup that owns live goroutines) so it runs last.
func checkGoroutines(t *testing.T) {
	t.Helper()
	t.Cleanup(func() {
		// Keep-alive conns owned by the default transport (stray test
		// clients) die here, not in the retry loop, so a parked readLoop
		// is not misread as a leak.
		http.DefaultClient.CloseIdleConnections()
		deadline := time.Now().Add(leakSettleTimeout)
		var leaked []string
		for {
			leaked = liveGoroutines()
			if len(leaked) == 0 {
				return
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
		t.Errorf("%d live-stack goroutines leaked after fleet teardown:\n%s",
			len(leaked), strings.Join(leaked, "\n\n"))
	})
}

// liveGoroutines returns the stacks of goroutines still inside the live
// stack, excluding the caller's own.
func liveGoroutines() []string {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	var leaked []string
	for i, g := range strings.Split(string(buf[:n]), "\n\n") {
		if i == 0 {
			continue // the first stack is this goroutine
		}
		for _, pat := range leakPatterns {
			if strings.Contains(g, pat) {
				leaked = append(leaked, g)
				break
			}
		}
	}
	return leaked
}
