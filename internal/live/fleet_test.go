package live

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestWaitReadyHonoursDeadline: a node that accepts a readiness poll and
// never answers fails the wait at its deadline instead of holding it.
func TestWaitReadyHonoursDeadline(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer srv.Close()
	defer close(release)
	f := &Fleet{urls: []string{srv.URL}, killed: []bool{false}}
	start := time.Now()
	if err := f.WaitReady(200 * time.Millisecond); err == nil {
		t.Fatal("WaitReady on a silent node = nil, want an error")
	}
	if wait := time.Since(start); wait > 2*time.Second {
		t.Fatalf("WaitReady returned after %v, want about its 200ms deadline", wait)
	}
}
