package live

import (
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
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
// time its clock has reached, and none after Stop. The test moves the
// node's epoch instead of sleeping.
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

	// The peer handlers' try-lock settles too.
	nd.epoch = nd.epoch.Add(-time.Hour)
	if got := served(func() { _ = nd.lockMu() }); got != 4 {
		t.Fatalf("served %d an hour on, want 4", got)
	}

	nd.Stop()
	nd.epoch = nd.epoch.Add(-time.Hour)
	if got := served(nd.lock); got != 4 {
		t.Fatalf("served %d after Stop, want the 4 from before it", got)
	}
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
	if status, tok, at := nd.sendCreateObj(time.Second, req, 0); status != protocol.CreateDown || tok != 0 || at != time.Second {
		t.Fatalf("handshake to a down peer: (%d, %d, %v), want (CreateDown, 0, 1s)", status, tok, at)
	}
	if attempts, _, _ := nd.client.Stats(); attempts != 0 || received.Load() != 0 {
		t.Fatalf("down peer: %d RPC attempts, %d handshakes received; want none", attempts, received.Load())
	}

	nd.downPeers[1] = false
	if status, tok, _ := nd.sendCreateObj(2*time.Second, req, 0); status != protocol.CreateAccepted || tok != 1 {
		t.Fatalf("handshake to the peer back up: (%d, %d), want (CreateAccepted, 1)", status, tok)
	}
	if attempts, _, _ := nd.client.Stats(); attempts != 1 || received.Load() != 1 || lastID.Load() != 1 {
		t.Fatalf("peer back up: %d RPC attempts, %d handshakes received, the last with ID %d; want one, with ID 1",
			attempts, received.Load(), lastID.Load())
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
	if status, _, _ := nd.sendCreateObj(time.Second, req, 0); status != protocol.CreateLost {
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
