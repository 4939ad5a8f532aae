package live_test

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"radar/internal/live"
	"radar/internal/protocol"
	"radar/internal/routing"
	"radar/internal/topology"
)

// testNodes stands up cfg's fleet, one node per topology member, behind
// test servers. intercept sees every request to node i before the node
// does and reports whether it answered it.
func testNodes(t *testing.T, cfg live.Config, intercept func(i int, w http.ResponseWriter, r *http.Request) bool) (nodes []*live.Node, urls []string) {
	t.Helper()
	checkGoroutines(t)
	nodes = make([]*live.Node, cfg.Sim.Topo.NumNodes())
	urls = make([]string, len(nodes))
	for i := range nodes {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !intercept(i, w, r) {
				nodes[i].Handler().ServeHTTP(w, r)
			}
		}))
		urls[i] = srv.URL
		t.Cleanup(srv.Close)
	}
	routes := routing.New(cfg.Sim.Topo)
	for i := range nodes {
		nd, err := live.NewNode(cfg, topology.NodeID(i), urls, routes)
		if err != nil {
			t.Fatal(err)
		}
		nd.Start(time.Now(), false)
		t.Cleanup(nd.Stop)
		nodes[i] = nd
	}
	return nodes, urls
}

// wedgedSource stands up a two-node fleet whose node 0 never answers
// /fetch/: the handler signals entered and hangs until the test ends.
// rpcTimeout is the nodes' per-attempt RPC timeout.
func wedgedSource(t *testing.T, rpcTimeout time.Duration) (nodes []*live.Node, urls []string, entered chan struct{}) {
	t.Helper()
	cfg := liveConfig(t, topology.Line(2), 8, 1, time.Minute)
	cfg.RPC.Timeout = rpcTimeout
	entered = make(chan struct{}, 1)
	release := make(chan struct{})
	nodes, urls = testNodes(t, cfg, func(i int, _ http.ResponseWriter, r *http.Request) bool {
		if i != 0 || !strings.HasPrefix(r.URL.Path, live.PathFetch) {
			return false
		}
		entered <- struct{}{}
		<-release
		return true
	})
	// Runs before the servers close (LIFO), which wait for their handlers.
	t.Cleanup(func() { close(release) })
	return nodes, urls, entered
}

// replicateOnto POSTs a CreateObj that makes node 1 copy object 0 from
// node 0, and reports the POST's outcome on the returned channel.
func replicateOnto(url string) <-chan error {
	done := make(chan error, 1)
	msg := live.CreateObjMsg{
		MsgID: 9001, From: 0, To: 1, Method: protocol.Replicate.String(),
		Object: 0, UnitLoad: 0.5, SrcAff: 1, Now: 0,
	}
	go func() {
		res, err := http.Post(url+live.PathCreateObj, "application/json", bytes.NewReader(live.Encode(&msg)))
		if err == nil {
			res.Body.Close()
		}
		done <- err
	}()
	return done
}

// TestWedgedFetchSource: the accepting side of a CreateObj fetches the
// object's bytes while holding the node lock, so a source that never
// answers must cost the acceptor one RPC timeout of serving, not all of
// it, and must not hold up Stop.
func TestWedgedFetchSource(t *testing.T) {
	t.Run("serve resumes after the timeout", func(t *testing.T) {
		_, urls, entered := wedgedSource(t, 300*time.Millisecond)
		created := replicateOnto(urls[1])
		<-entered
		client := &http.Client{Timeout: 5 * time.Second}
		defer client.CloseIdleConnections()
		res, err := client.Get(urls[1] + live.PathServe + "1?g=0&now=5")
		if err != nil {
			t.Fatalf("/serve/ behind a wedged fetch: %v", err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusOK {
			t.Fatalf("/serve/ status %d", res.StatusCode)
		}
		if err := <-created; err != nil {
			t.Fatalf("createobj: %v", err)
		}
	})
	t.Run("stop aborts the fetch", func(t *testing.T) {
		nodes, urls, entered := wedgedSource(t, time.Minute)
		created := replicateOnto(urls[1])
		<-entered
		stopped := make(chan struct{})
		go func() {
			nodes[1].Stop()
			close(stopped)
		}()
		deadline := time.After(5 * time.Second)
		select {
		case <-stopped:
		case <-deadline:
			t.Fatal("Stop still waiting on the wedged source after 5s")
		}
		select {
		case <-created:
		case <-deadline:
			t.Fatal("the createobj handler still waiting on the wedged source 5s after Stop")
		}
	})
}
