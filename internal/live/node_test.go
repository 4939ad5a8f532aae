package live

import (
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"radar/internal/ctrlplane"
	"radar/internal/object"
	"radar/internal/protocol"
	"radar/internal/sim"
	"radar/internal/topology"
	"radar/internal/workload"
)

// twoNodeConfig is a two-node line fleet of eight 1 KB objects.
func twoNodeConfig(t *testing.T) Config {
	t.Helper()
	u := object.Universe{Count: 8, SizeBytes: 1 << 10}
	gen, err := workload.NewHotPages(u, 0.1, 0.9, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Sim: sim.DefaultConfig(gen, 7)}
	cfg.Sim.Topo, cfg.Sim.Universe = topology.Line(2), u
	return cfg
}

// TestCompletionFIFO: a free-running node settles its own completions
// whenever its lock is taken — in admission order, only those whose done
// time its clock has reached, none while a placement pass runs (they count
// toward the next window) and none after Stop. The test moves the node's
// epoch instead of sleeping.
func TestCompletionFIFO(t *testing.T) {
	cfg := twoNodeConfig(t)
	cfg.FreeRunning = true
	nd, err := NewNode(cfg, 0, []string{"http://node0.invalid", "http://node1.invalid"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	served := func(lock func()) int64 {
		lock()
		defer nd.mu.Unlock()
		return nd.machine.Server.TotalServed()
	}

	nd.epoch = time.Now().Add(-10 * time.Second) // the node's clock reads 10 s
	for i, done := range []time.Duration{time.Second, 5 * time.Second, 5 * time.Second, time.Hour, 2 * time.Hour} {
		nd.pending = append(nd.pending, completion{done: done, id: object.ID(i)})
	}
	if got := served(nd.lock); got != 3 {
		t.Fatalf("served %d at 10 s, want the 3 due", got)
	}
	if rest := nd.pending[nd.head:]; len(rest) != 2 || rest[0].id != 3 || rest[1].id != 4 {
		t.Fatalf("pending after the due prefix = %+v, want objects 3, 4 in admission order", rest)
	}

	// A pass yielding its lock to a handler holds the due one back.
	nd.epoch = nd.epoch.Add(-time.Hour)
	nd.placing = true
	if got := served(nd.lock); got != 3 {
		t.Fatalf("served %d an hour on, mid-pass, want the 3 from before it", got)
	}
	nd.placing = false
	if got := served(nd.lock); got != 4 {
		t.Fatalf("served %d an hour on, after the pass, want 4", got)
	}

	nd.Stop()
	nd.epoch = nd.epoch.Add(-time.Hour)
	if got := served(nd.lock); got != 4 {
		t.Fatalf("served %d after Stop, want the 4 from before it", got)
	}
}

// TestParkedPassLeavesNodeAnswering: a free-running node's placement pass
// lets go of the node lock while its handshake waits on the peer, so the
// node's own handlers answer meanwhile, a peer's load query and a
// client's request each within 100 ms (not a busy answer after a deadline,
// nor a wait for the whole pass), and a driver's pass is refused. The request whose service completes
// while the pass is parked is settled after the pass, into the next
// window.
func TestParkedPassLeavesNodeAnswering(t *testing.T) {
	cfg := twoNodeConfig(t)
	cfg.FreeRunning = true
	cfg.Sim.Protocol.ReplicaFloor = 2 // node 0's pass repairs each object it holds toward node 1
	parked, release := make(chan struct{}), make(chan struct{})
	var park sync.Once
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case PathLoad:
			writeJSON(w, LoadReply{Low: 80, High: 90})
		case PathCreateObj:
			var msg CreateObjMsg
			if readBody(w, r, &msg) {
				park.Do(func() { close(parked) })
				<-release
				writeJSON(w, CreateObjReply{MsgID: msg.MsgID}) // refused: the repair moves on
			}
		default:
			t.Errorf("peer got %s", r.URL.Path)
			http.NotFound(w, r)
		}
	}))
	defer peer.Close()
	var nd *Node
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { nd.Handler().ServeHTTP(w, r) }))
	defer srv.Close()
	nd, err := NewNode(cfg, 0, []string{srv.URL, peer.URL}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Stop()
	nd.epoch = time.Now() // the clock Start sets, without its tickers
	served := func() int64 {
		nd.lock()
		defer nd.mu.Unlock()
		return nd.machine.Server.TotalServed()
	}

	passDone := make(chan struct{})
	go func() {
		defer close(passDone)
		nd.placeTick(time.Second)
	}()
	unpark := sync.OnceFunc(func() { close(release); <-passDone })
	defer unpark()
	select {
	case <-parked:
	case <-time.After(5 * time.Second):
		t.Fatal("the pass sent no handshake")
	}

	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	for _, path := range []string{PathLoad, PathServe + "0?g=0&now=0"} {
		start := time.Now()
		res, err := client.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("%s while the pass is parked: %v", path, err)
		}
		_, _ = io.Copy(io.Discard, res.Body)
		res.Body.Close()
		if took := time.Since(start); res.StatusCode != http.StatusOK || took > 100*time.Millisecond {
			t.Fatalf("%s while the pass is parked: status %d after %v, want 200 within 100ms", path, res.StatusCode, took)
		}
	}
	// Its own passes are the only ones a free-running node runs: a second
	// one would interleave with the parked one at its yields.
	res, err := client.Post(srv.URL+PathPlace, "application/json", strings.NewReader(`{"now":2000000000}`))
	if err != nil {
		t.Fatalf("%s while the pass is parked: %v", PathPlace, err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusConflict {
		t.Fatalf("%s while the pass is parked: status %d, want 409", PathPlace, res.StatusCode)
	}
	nd.mu.Lock()
	due := nd.pending[0].done
	nd.mu.Unlock()
	time.Sleep(due - nd.vnow() + 10*time.Millisecond)
	if got := served(); got != 0 {
		t.Fatalf("served %d with the pass parked past the request's done time, want 0", got)
	}
	unpark()
	if got := served(); got != 1 {
		t.Fatalf("served %d after the pass, want 1", got)
	}
}

// sendLocked runs a fresh handshake the way a pass does, under the node
// lock, which sendCreateObj lets go of around the RPC.
func sendLocked(nd *Node, now time.Duration, req protocol.CreateObjRequest) (protocol.CreateObjStatus, uint64, time.Duration) {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return nd.sendCreateObj(now, req, 0)
}

// TestSendCreateObjToDownPeer: a handshake to a peer marked down is
// answered CreateDown before the RPC client sees it: no /rpc/createobj
// attempt and no message ID. Once the peer is back, the next handshake
// carries the node's first message ID.
func TestSendCreateObjToDownPeer(t *testing.T) {
	cfg := twoNodeConfig(t)
	var received, lastID atomic.Uint64 // written by the peer's handler goroutine
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var msg CreateObjMsg
		if r.URL.Path != PathCreateObj || !readBody(w, r, &msg) {
			t.Errorf("peer got %s, want a valid %s", r.URL.Path, PathCreateObj)
			return
		}
		received.Add(1)
		lastID.Store(msg.MsgID)
		writeJSON(w, CreateObjReply{MsgID: msg.MsgID, Accepted: true})
	}))
	defer peer.Close()
	nd, err := NewNode(cfg, 0, []string{"http://node0.invalid", peer.URL}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Stop()
	req := protocol.CreateObjRequest{From: 0, To: 1, Method: protocol.Replicate, Object: 1, UnitLoad: 1, SrcAff: 1}

	nd.downPeers[1] = true
	if status, tok, at := sendLocked(nd, time.Second, req); status != protocol.CreateDown || tok != 0 || at != time.Second {
		t.Fatalf("handshake to a down peer: (%d, %d, %v), want (CreateDown, 0, 1s)", status, tok, at)
	}
	if attempts, _, _ := nd.client.Stats(); attempts != 0 || received.Load() != 0 {
		t.Fatalf("down peer: %d RPC attempts, %d handshakes received; want none", attempts, received.Load())
	}

	nd.downPeers[1] = false
	first := uint64(nd.bootID)<<40 | 1
	if status, tok, _ := sendLocked(nd, 2*time.Second, req); status != protocol.CreateAccepted || tok != first {
		t.Fatalf("handshake to the peer back up: (%d, %#x), want (CreateAccepted, %#x)", status, tok, first)
	}
	if attempts, _, _ := nd.client.Stats(); attempts != 1 || received.Load() != 1 || lastID.Load() != first {
		t.Fatalf("peer back up: %d RPC attempts, %d handshakes received, the last with ID %#x; want one, with ID %#x",
			attempts, received.Load(), lastID.Load(), first)
	}
}

// TestRestartedNodeSendsFreshMessageIDs: a restarted node is a fresh
// incarnation whose message counter starts again, while its peers keep
// the verdicts of the old one's messages. Its first handshake after the
// restart must execute on the peer, not be answered with the verdict the
// previous incarnation's first handshake got.
func TestRestartedNodeSendsFreshMessageIDs(t *testing.T) {
	f, err := NewFleet(twoNodeConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	create := func(obj object.ID) (protocol.CreateObjStatus, uint64) {
		req := protocol.CreateObjRequest{From: 0, To: 1, Method: protocol.Replicate, Object: obj, UnitLoad: 0.01, SrcAff: 1}
		f.mu.Lock()
		nd := f.nodes[0]
		f.mu.Unlock()
		status, tok, _ := sendLocked(nd, time.Second, req)
		return status, tok
	}
	peer := f.nodes[1]
	holds := func(obj object.ID) bool {
		peer.mu.Lock()
		defer peer.mu.Unlock()
		return peer.machine.Host.Has(obj)
	}
	if holds(0) || holds(2) {
		t.Fatal("node 1 holds objects 0 or 2 before any handshake")
	}
	if status, _ := create(0); status != protocol.CreateAccepted || peer.creates.Executed() != 1 || !holds(0) {
		t.Fatalf("first handshake: status %d, %d executions; want accepted, one, object 0 held", status, peer.creates.Executed())
	}
	if err := f.Kill(0); err != nil {
		t.Fatal(err)
	}
	if err := f.Restart(0); err != nil {
		t.Fatal(err)
	}
	if status, _ := create(2); status != protocol.CreateAccepted || peer.creates.Executed() != 2 || !holds(2) {
		t.Fatalf("handshake after restart: status %d, %d executions, object 2 held %v; want accepted, two, held",
			status, peer.creates.Executed(), holds(2))
	}
}

// TestNodeTakesRPCPolicyFromSimCtrl: a node's RPC client runs the retry
// policy of cfg.Sim.Ctrl, the knobs the simulator's lossy plane reads. With
// one retry, a handshake to a peer that refuses connections costs two
// attempts and is reported lost.
func TestNodeTakesRPCPolicyFromSimCtrl(t *testing.T) {
	cfg := twoNodeConfig(t)
	cfg.Sim.Ctrl = ctrlplane.Params{Retries: 1, BackoffBase: time.Millisecond, BackoffCap: time.Millisecond}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	refused := "http://" + ln.Addr().String()
	ln.Close()
	nd, err := NewNode(cfg, 0, []string{"http://node0.invalid", refused}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Stop()
	req := protocol.CreateObjRequest{From: 0, To: 1, Method: protocol.Replicate, Object: 1, UnitLoad: 1, SrcAff: 1}
	if status, _, _ := sendLocked(nd, time.Second, req); status != protocol.CreateLost {
		t.Fatalf("handshake to a refusing peer: status %d, want CreateLost", status)
	}
	if attempts, retries, lost := nd.client.Stats(); attempts != 2 || retries != 1 || lost != 1 {
		t.Fatalf("%d attempts, %d retries, %d lost; want 2, 1, 1 (Sim.Ctrl.Retries = 1)", attempts, retries, lost)
	}
}

// TestDataPlaneAnswers pins what a client of the two hot endpoints gets:
// a 302 that is its headers and nothing else, and a 200 that states the
// object's length instead of chunking it.
func TestDataPlaneAnswers(t *testing.T) {
	cfg := twoNodeConfig(t)
	u := cfg.Sim.Universe
	var nd *Node
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { nd.Handler().ServeHTTP(w, r) }))
	defer srv.Close()
	// Node 0 is the fleet's redirector; object 1 is homed on node 1.
	nd, err := NewNode(cfg, 0, []string{srv.URL, "http://node1.invalid"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	nd.Start(time.Now(), false)
	defer nd.Stop()
	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }}
	get := func(pathAndQuery string) (*http.Response, string) {
		t.Helper()
		res, err := client.Get(srv.URL + pathAndQuery)
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		body, err := io.ReadAll(res.Body)
		if err != nil {
			t.Fatal(err)
		}
		return res, string(body)
	}

	arrive := time.Microsecond + cfg.Sim.Net.HopDelay // one hop from the redirector to node 1
	wantLoc := "http://node1.invalid" + PathServe + "1?g=1&now=" + strconv.FormatInt(int64(arrive), 10)
	for _, query := range []string{"?g=1&now=1000", "?now=1000&g=%31"} { // scanned in place; parsed because it escapes
		res, body := get(PathObj + "1" + query)
		if res.StatusCode != http.StatusFound || res.Header.Get("Location") != wantLoc || res.Header.Get(HeaderHost) != "1" {
			t.Fatalf("%s: status %d, Location %q, %s %q; want 302 to %q on host 1",
				query, res.StatusCode, res.Header.Get("Location"), HeaderHost, res.Header.Get(HeaderHost), wantLoc)
		}
		if body != "" || res.ContentLength != 0 || res.TransferEncoding != nil {
			t.Fatalf("%s: 302 carries body %q (length %d, encoding %v), want none", query, body, res.ContentLength, res.TransferEncoding)
		}
	}
	for _, path := range []string{PathServe + "0?g=1&now=1000", PathFetch + "0"} {
		res, body := get(path)
		if res.StatusCode != http.StatusOK || len(body) != u.SizeBytes {
			t.Fatalf("%s: status %d with %d bytes, want 200 with %d", path, res.StatusCode, len(body), u.SizeBytes)
		}
		if res.ContentLength != int64(u.SizeBytes) || res.TransferEncoding != nil {
			t.Fatalf("%s: Content-Length %d, Transfer-Encoding %v; want %d, not chunked", path, res.ContentLength, res.TransferEncoding, u.SizeBytes)
		}
	}
	if res, body := get(PathServe + "0?g=%78&now=1"); res.StatusCode != http.StatusBadRequest || body != "live: bad gateway \"x\"\n" {
		t.Fatalf("escaped bad gateway: status %d, body %q", res.StatusCode, body)
	}
	// An id that parses but names no object of the universe is a bad id on
	// every data-plane path, the replica fetch included.
	for _, id := range []string{"-1", strconv.Itoa(u.Count), "x"} {
		for _, path := range []string{PathFetch + id, PathServe + id + "?g=1&now=1000", PathObj + id + "?g=1&now=1000"} {
			if res, body := get(path); res.StatusCode != http.StatusBadRequest || body != "live: bad object id \""+id+"\"\n" {
				t.Errorf("%s: status %d, body %q; want 400 bad object id", path, res.StatusCode, body)
			}
		}
	}
}

// TestReplicaSetSeam pins the redirector's two replica-set endpoints: a
// notify is its content (object, host, affinity) with no message ID, and
// /rpc/replicas?obj=N answers the recorded hosts, whose number is the
// replica count.
func TestReplicaSetSeam(t *testing.T) {
	cfg := twoNodeConfig(t)
	var nd *Node
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { nd.Handler().ServeHTTP(w, r) }))
	defer srv.Close()
	// Node 0 is the fleet's redirector; object 1 is homed on node 1.
	nd, err := NewNode(cfg, 0, []string{srv.URL, "http://node1.invalid"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	nd.Start(time.Now(), false)
	defer nd.Stop()

	res, err := http.Post(srv.URL+PathNotify, "application/json", strings.NewReader(`{"object":1,"host":0,"aff":1}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("notify without msg_id: status %d, body %q; want 200", res.StatusCode, body)
	}
	var rep ReplicasReply
	if err := Scrape(http.DefaultClient, srv.URL+PathReplicas+"?obj=1", &rep); err != nil {
		t.Fatal(err)
	}
	if want := []topology.NodeID{0, 1}; !slices.Equal(rep.Hosts, want) {
		t.Fatalf("replicas of object 1 = %v, want %v", rep.Hosts, want)
	}
}

// TestForeignObjectAnswers400: with two redirectors node 0 answers for the
// even objects only, and its redirector table holds only those. A notify,
// drop, replica-set query or object request for an odd object is refused
// with 400 before the redirector sees it (it would index another object's
// entry); the same requests for an even object are served.
func TestForeignObjectAnswers400(t *testing.T) {
	cfg := twoNodeConfig(t)
	cfg.Sim.NumRedirectors = 2
	nd, err := NewNode(cfg, 0, []string{"http://node0.invalid", "http://node1.invalid"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(nd.Handler())
	defer srv.Close()
	nd.Start(time.Now(), false)
	defer nd.Stop()
	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }}
	for obj, want := range map[int]int{2: http.StatusOK, 3: http.StatusBadRequest} {
		for _, req := range []struct{ path, body string }{
			{PathNotify, `{"object":` + strconv.Itoa(obj) + `,"host":1,"aff":1}`},
			{PathRequestDrop, `{"msg_id":` + strconv.Itoa(obj) + `,"object":` + strconv.Itoa(obj) + `,"host":1}`},
			{PathReplicas + "?obj=" + strconv.Itoa(obj), ""},
			{PathObj + strconv.Itoa(obj) + "?g=1&now=0", ""},
		} {
			var res *http.Response
			if req.body == "" {
				res, err = client.Get(srv.URL + req.path)
			} else {
				res, err = client.Post(srv.URL+req.path, "application/json", strings.NewReader(req.body))
			}
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(res.Body)
			res.Body.Close()
			if got := res.StatusCode; (got == http.StatusBadRequest) != (want == http.StatusBadRequest) {
				t.Errorf("object %d, %s: status %d, body %q; want %d", obj, req.path, got, body, want)
			}
		}
	}
}

// TestRawQueryValue: on a query without escapes the in-place scan returns
// what url.Values.Get does, duplicates, bare keys and empty pairs included.
func TestRawQueryValue(t *testing.T) {
	for _, raw := range []string{
		"g=3&now=5", "now=5&g=3", "g=3&g=4&now=1", "g&now=1", "&&g=1&&now=2&", "x=1", "",
		"g==&now=1", "gg=1&now=2", "g=1=2", "=7&g=2", "now=&g=",
	} {
		want, err := url.ParseQuery(raw)
		if err != nil {
			t.Fatalf("%q: %v", raw, err)
		}
		for _, key := range []string{"g", "now"} {
			if got := rawQueryValue(raw, key); got != want.Get(key) {
				t.Errorf("rawQueryValue(%q, %q) = %q, url.Values.Get = %q", raw, key, got, want.Get(key))
			}
		}
	}
}
