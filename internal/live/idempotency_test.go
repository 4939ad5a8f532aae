package live_test

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"radar/internal/live"
	"radar/internal/object"
	"radar/internal/protocol"
	"radar/internal/sim"
	"radar/internal/topology"
	"radar/internal/workload"
)

// liveConfig builds a small fleet configuration over the given synthetic
// topology, mirroring the simulator tests' scale-down pattern.
func liveConfig(t *testing.T, topo *topology.Topology, objects int, rps float64, dur time.Duration) live.Config {
	t.Helper()
	u := object.Universe{Count: objects, SizeBytes: 4 << 10}
	gen, err := workload.NewHotPages(u, 0.1, 0.9, 3)
	if err != nil {
		t.Fatalf("building workload: %v", err)
	}
	cfg := sim.DefaultConfig(gen, 7)
	cfg.Topo = topo
	cfg.Universe = u
	cfg.NodeRequestRPS = rps
	cfg.Duration = dur
	cfg.PlacementInterval = 30 * time.Second
	cfg.MetricsBucket = 30 * time.Second
	return live.Config{Sim: cfg}
}

// postCreate POSTs one CreateObj message and returns the response body.
func postCreate(t *testing.T, url string, msg *live.CreateObjMsg) []byte {
	t.Helper()
	res, err := http.Post(url+live.PathCreateObj, "application/json", bytes.NewReader(live.Encode(msg)))
	if err != nil {
		t.Fatalf("POST createobj: %v", err)
	}
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatalf("reading createobj reply: %v", err)
	}
	if res.StatusCode != http.StatusOK {
		t.Fatalf("createobj status %d: %s", res.StatusCode, body)
	}
	return body
}

func nodeStats(t *testing.T, url string) live.StatsReply {
	t.Helper()
	res, err := http.Get(url + live.PathStats)
	if err != nil {
		t.Fatalf("GET stats: %v", err)
	}
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatalf("reading stats: %v", err)
	}
	var rep live.StatsReply
	if err := live.Decode(body, &rep); err != nil {
		t.Fatalf("decoding stats: %v", err)
	}
	return rep
}

// TestCreateObjIdempotent: retries and concurrent duplicates of one
// CreateObj message execute the handshake once and replay the identical
// verdict — the buildbarn-style request deduplication on the live wire.
func TestCreateObjIdempotent(t *testing.T) {
	h := startHarness(t, liveConfig(t, topology.Line(3), 9, 1, time.Minute))
	target := h.Fleet.URL(1)
	msg := &live.CreateObjMsg{
		MsgID: 7001, From: 0, To: 1, Method: protocol.Replicate.String(),
		Object: 0, UnitLoad: 0.5, SrcAff: 2, Now: 0,
	}

	first := postCreate(t, target, msg)
	var rep live.CreateObjReply
	if err := live.Decode(first, &rep); err != nil {
		t.Fatalf("decoding verdict: %v", err)
	}
	if rep.MsgID != msg.MsgID {
		t.Fatalf("verdict msg id %d, want %d", rep.MsgID, msg.MsgID)
	}
	if !rep.Accepted || !rep.Copied {
		t.Fatalf("idle host refused the create: %+v", rep)
	}

	// Sequential retries and concurrent duplicates all replay the verdict.
	var wg sync.WaitGroup
	replies := make([][]byte, 6)
	for i := range replies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			replies[i] = postCreate(t, target, msg)
		}(i)
	}
	wg.Wait()
	for i, r := range replies {
		if !bytes.Equal(r, first) {
			t.Fatalf("duplicate %d got %s, want %s", i, r, first)
		}
	}

	stats := nodeStats(t, target)
	if stats.CreateExecutions != 1 {
		t.Fatalf("CreateExecutions = %d after 7 copies of one message, want 1", stats.CreateExecutions)
	}
}

// postPlace runs one placement pass on a node at virtual time now.
func postPlace(t *testing.T, url string, now time.Duration) live.PlaceReply {
	t.Helper()
	res, err := http.Post(url+live.PathPlace, "application/json", bytes.NewReader(live.Encode(&live.TickMsg{Now: int64(now)})))
	if err != nil {
		t.Fatalf("POST place: %v", err)
	}
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	if err != nil || res.StatusCode != http.StatusOK {
		t.Fatalf("place status %d, err %v: %s", res.StatusCode, err, body)
	}
	var rep live.PlaceReply
	if err := live.Decode(body, &rep); err != nil {
		t.Fatalf("decoding place reply: %v", err)
	}
	return rep
}

// TestPlaceReplyCarriesItsCopies: a placement pass's reply is its complete
// event list. Floor repair makes node 0's first pass replicate each of its
// objects onto node 1; every copy rides node 0's reply, immediately before
// the decision whose handshake made it, and none of it waits on the
// acceptor for a later drain. The first verdict is lost in transit, so that
// handshake is retried under one message ID: the acceptor replays the
// verdict, and the placing node records one copy.
func TestPlaceReplyCarriesItsCopies(t *testing.T) {
	cfg := liveConfig(t, topology.Line(2), 6, 1, time.Minute)
	cfg.Sim.Protocol.ReplicaFloor = 2
	cfg.Sim.Ctrl.BackoffBase, cfg.Sim.Ctrl.BackoffCap = time.Millisecond, 5*time.Millisecond
	var nodes []*live.Node
	var creates, lost atomic.Int64
	nodes, urls := testNodes(t, cfg, func(i int, _ http.ResponseWriter, r *http.Request) bool {
		if i != 1 || r.URL.Path != live.PathCreateObj || creates.Add(1) > 1 {
			return false
		}
		// Execute the handshake, then lose the verdict.
		nodes[1].Handler().ServeHTTP(httptest.NewRecorder(), r)
		lost.Add(1)
		panic(http.ErrAbortHandler)
	})

	rep := postPlace(t, urls[0], 30*time.Second)
	if len(rep.Events) != 6 {
		t.Fatalf("node 0's pass reported %d events, want 3 copy+repair pairs: %+v", len(rep.Events), rep.Events)
	}
	for i := 0; i < len(rep.Events); i += 2 {
		cp, dec := rep.Events[i], rep.Events[i+1]
		want := live.Event{At: int64(30 * time.Second), Kind: live.EventCopy, Object: dec.Object, From: 0, To: 1}
		if cp != want || dec.Kind != live.EventReplicate || dec.Move != "repair" || dec.At != want.At {
			t.Fatalf("events %d,%d = %+v, %+v; want a copy 0->1 immediately before its repair", i, i+1, cp, dec)
		}
	}
	if lost.Load() != 1 {
		t.Fatalf("%d verdicts lost, want the first", lost.Load())
	}
	if st := nodeStats(t, urls[1]); st.CreateExecutions != 3 || creates.Load() != 4 {
		t.Fatalf("acceptor executed %d handshakes over %d deliveries, want 3 over 4", st.CreateExecutions, creates.Load())
	}

	// The acceptor's own pass reports its own moves (1 -> 0) and nothing of
	// the copies it received.
	for _, e := range postPlace(t, urls[1], 30*time.Second).Events {
		if e.Kind == live.EventCopy && e.To == 1 {
			t.Fatalf("acceptor's pass reported a copy it received: %+v", e)
		}
	}
}

// countingFleet stands up cfg's fleet and counts, per node, the /rpc/load
// requests and the /rpc/replicas requests that ask for the replica set
// (not just its size). Node dead, if not -1, fails every load report.
func countingFleet(t *testing.T, cfg live.Config, dead int) (urls []string, loads, replicaSets []atomic.Int64) {
	n := cfg.Sim.Topo.NumNodes()
	loads, replicaSets = make([]atomic.Int64, n), make([]atomic.Int64, n)
	_, urls = testNodes(t, cfg, func(i int, w http.ResponseWriter, r *http.Request) bool {
		switch {
		case r.URL.Path == live.PathReplicas && r.URL.Query().Get("hosts") != "":
			replicaSets[i].Add(1)
		case r.URL.Path == live.PathLoad:
			loads[i].Add(1)
			if i == dead {
				http.Error(w, "load reports are gone", http.StatusInternalServerError)
				return true
			}
		}
		return false
	})
	return urls, loads, replicaSets
}

// sum totals per-node counters.
func sum(counts []atomic.Int64) int64 {
	total := int64(0)
	for i := range counts {
		total += counts[i].Load()
	}
	return total
}

// TestPlacePassLoadReports: a placement pass exchanges load reports once,
// and fetches an object's replica set only to order candidates.
//
// Node 0 of a floor-2 fleet repairs its six single-copy objects in one
// pass; its /rpc/load traffic is one report per peer, one per would-be
// winner and one after each handshake, not N−1 per election, and a peer
// that fails the exchange without having been marked down is asked once,
// not once per election.
//
// At availability weight 0.5 a pass asks for the replica set only of an
// object with two or more candidates past Fig. 3's ratio: ordering fewer
// needs no score.
func TestPlacePassLoadReports(t *testing.T) {
	const n = 5
	t.Run("load-reports", func(t *testing.T) {
		const dead = 3
		cfg := liveConfig(t, topology.Line(n), 30, 1, time.Minute)
		cfg.Sim.Protocol.ReplicaFloor = 2
		urls, loads, _ := countingFleet(t, cfg, dead)

		rep := postPlace(t, urls[0], 30*time.Second)
		elections := 0
		for _, e := range rep.Events {
			if e.Kind == live.EventReplicate && e.Move == protocol.RepairMove.String() {
				elections++
				if e.To == dead {
					t.Errorf("repair target %d gave no load report: %+v", dead, e)
				}
			}
		}
		if elections != 6 {
			t.Fatalf("node 0's pass made %d repairs, want its 6: %+v", elections, rep.Events)
		}
		total := sum(loads)
		t.Logf("%d repair elections among %d peers: %d /rpc/load requests (%d when every election asks every peer)", elections, n-1, total, (n-1)*elections)
		if total >= int64((n-1)*elections) {
			t.Errorf("%d /rpc/load requests for %d elections among %d peers: the pass asked every peer at every election", total, elections, n-1)
		}
		if got := loads[dead].Load(); got != 1 {
			t.Errorf("the peer that failed the exchange was asked %d times in one pass, want 1", got)
		}
	})

	t.Run("replica-sets", func(t *testing.T) {
		// Node 0 holds objects 0, 5, ..., 25 (round-robin), and the one
		// redirector sits on node 2. Five requests in the 30 s window put an
		// object in Fig. 3's migration branch and short of replication. Objects
		// 0 and 5 come four times from gateway 4 and once locally, so nodes 1-4
		// each sit on 80 % of the paths. Objects 10 and 15 come four times from
		// gateway 1 and once from gateway 4: nodes 1-4 are counted, but only
		// node 1 is past MIGR_RATIO. Object 20 is asked only locally, 25 never.
		cfg := liveConfig(t, topology.Line(n), 30, 1, time.Minute)
		cfg.Sim.Protocol.AvailabilityWeight = 0.5
		urls, _, replicaSets := countingFleet(t, cfg, -1)
		for obj, gateways := range map[int64][]int{
			0: {4, 4, 4, 4, 0}, 5: {4, 4, 4, 4, 0},
			10: {1, 1, 1, 1, 4}, 15: {1, 1, 1, 1, 4},
			20: {0, 0, 0, 0, 0},
		} {
			for _, g := range gateways {
				res, err := http.Post(urls[0]+live.PathComplete, "application/json", bytes.NewReader(live.Encode(&live.CompleteMsg{Object: obj, Gateway: g})))
				if err != nil {
					t.Fatal(err)
				}
				res.Body.Close()
				if res.StatusCode != http.StatusOK {
					t.Fatalf("complete of object %d from gateway %d: status %d", obj, g, res.StatusCode)
				}
			}
		}
		migrations := 0
		for _, e := range postPlace(t, urls[0], 30*time.Second).Events {
			if e.Kind == live.EventMigrate {
				migrations++
			}
		}
		if migrations != 4 {
			t.Fatalf("node 0's pass made %d migrations, want objects 0, 5, 10 and 15 moved", migrations)
		}
		if got := sum(replicaSets); got != 2 {
			t.Errorf("the pass fetched %d replica sets, want 2: objects 0 and 5 (every object with two counted candidates is 4)", got)
		}
	})
}

// TestCreateObjConcurrencyLimit: distinct CreateObj messages all execute,
// but never more than the node's fixed limit (createDedupLimit) at a time.
func TestCreateObjConcurrencyLimit(t *testing.T) {
	const limit, msgs = 4, 12
	h := startHarness(t, liveConfig(t, topology.Line(3), 24, 1, time.Minute))
	target := h.Fleet.URL(2)

	var wg sync.WaitGroup
	for i := 0; i < msgs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			msg := &live.CreateObjMsg{
				MsgID: uint64(9000 + i), From: 0, To: 2, Method: protocol.Replicate.String(),
				Object: int64(i), UnitLoad: 0.01, SrcAff: 1, Now: 0,
			}
			body := postCreate(t, target, msg)
			var rep live.CreateObjReply
			if err := live.Decode(body, &rep); err != nil {
				t.Errorf("decoding verdict %d: %v", i, err)
				return
			}
			if rep.MsgID != msg.MsgID {
				t.Errorf("verdict %d answered msg id %d", i, rep.MsgID)
			}
		}(i)
	}
	wg.Wait()

	stats := nodeStats(t, target)
	if stats.CreateExecutions != msgs {
		t.Fatalf("CreateExecutions = %d, want %d", stats.CreateExecutions, msgs)
	}
	if stats.CreatePeakConcurrency > limit {
		t.Fatalf("CreatePeakConcurrency = %d, limit %d", stats.CreatePeakConcurrency, limit)
	}
}

// TestMalformedRPCAnswers400: a malformed control-plane body is rejected
// with the typed wire error, not a hang or a panic.
func TestMalformedRPCAnswers400(t *testing.T) {
	h := startHarness(t, liveConfig(t, topology.Line(2), 4, 1, time.Minute))
	for _, body := range []string{`{"msg_id":`, `{"msg_id":0}`, `{"msg_id":1,"method":"STEAL","src_aff":1}`} {
		res, err := http.Post(h.Fleet.URL(0)+live.PathCreateObj, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		reason, _ := io.ReadAll(res.Body)
		res.Body.Close()
		if res.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400", body, res.StatusCode)
		}
		if len(reason) == 0 {
			t.Fatalf("body %q: empty rejection reason", body)
		}
	}
	if got := nodeStats(t, h.Fleet.URL(0)).CreateExecutions; got != 0 {
		t.Fatalf("malformed bodies executed %d creates", got)
	}
}

// TestOutOfRangeIDsAnswer400: a well-formed peer message or load/replica
// query naming a host outside the fleet or an object outside the universe
// is refused with 400 before the host or redirector sees it, and the
// redirector keeps answering object requests. A recorded replica on a host without a distance row would make
// the next choice panic with the redirector's lock held; a completion from
// a gateway past the fleet would make the next placement pass charge the
// wrong path, or panic with the node's lock held.
func TestOutOfRangeIDsAnswer400(t *testing.T) {
	const objects, nodes = 16, 4
	// Star(4): node 0 is the hub and the one redirector.
	h := startHarness(t, liveConfig(t, topology.Star(nodes), objects, 1, time.Minute))
	client := &http.Client{
		Timeout:       5 * time.Second,
		CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
	}
	for _, c := range []struct {
		path string
		msg  any // nil: a GET of path
	}{
		{live.PathNotify, &live.NotifyMsg{MsgID: 1, Object: 1, Host: nodes, Aff: 1}},
		{live.PathNotify, &live.NotifyMsg{MsgID: 2, Object: objects, Host: 1, Aff: 1}},
		{live.PathRequestDrop, &live.DropMsg{MsgID: 3, Object: 1, Host: nodes}},
		{live.PathRequestDrop, &live.DropMsg{MsgID: 4, Object: objects, Host: 1}},
		{live.PathMark, &live.MarkMsg{Host: nodes, Down: true}},
		{live.PathCreateObj, &live.CreateObjMsg{MsgID: 5, From: 1, To: 0, Method: protocol.Replicate.String(), Object: objects, UnitLoad: 0.01, SrcAff: 1}},
		// Object 0 is homed on node 0, so the host settles its completions
		// over the gateway's preference path at the next pass.
		{live.PathComplete, &live.CompleteMsg{Object: 0, Gateway: nodes}},
		{live.PathComplete, &live.CompleteMsg{Object: 0, Gateway: nodes * nodes}},
		{live.PathComplete, &live.CompleteMsg{Object: objects, Gateway: 1}},
		{live.PathLoad + "?obj=" + strconv.Itoa(objects) + "&now=0", nil},
		{live.PathReplicas + "?obj=" + strconv.Itoa(objects) + "&hosts=1", nil},
	} {
		var res *http.Response
		var err error
		if c.msg == nil {
			res, err = client.Get(h.Fleet.URL(0) + c.path)
		} else {
			res, err = client.Post(h.Fleet.URL(0)+c.path, "application/json", bytes.NewReader(live.Encode(c.msg)))
		}
		if err != nil {
			t.Fatalf("%s %+v: %v", c.path, c.msg, err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusBadRequest {
			t.Errorf("%s %+v: status %d, want 400", c.path, c.msg, res.StatusCode)
		}
		res, err = client.Get(h.Fleet.URL(0) + live.PathObj + "1?g=1&now=0")
		if err != nil {
			t.Fatalf("object request after %s %+v: %v", c.path, c.msg, err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusFound {
			t.Fatalf("object request after %s %+v: status %d, want 302", c.path, c.msg, res.StatusCode)
		}
	}
	// A pass settles whatever the completions logged; it must answer.
	res, err := client.Post(h.Fleet.URL(0)+live.PathPlace, "application/json", bytes.NewReader(live.Encode(&live.TickMsg{Now: 0})))
	if err != nil {
		t.Fatalf("POST %s after the out-of-range rows: %v", live.PathPlace, err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("POST %s after the out-of-range rows: status %d, want 200", live.PathPlace, res.StatusCode)
	}
}
