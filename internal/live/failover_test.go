package live_test

import (
	"context"
	"io"
	"net/http"
	"strconv"
	"testing"
	"time"

	"radar/internal/live"
	"radar/internal/topology"
)

// TestRedirectorFailover kills a leaf node mid-replay and asserts the
// fleet routes around it: with a replica floor of two, every object the
// dead node held has a surviving replica, the redirector's 302s fail over
// to it, and no requests fail after the crash bucket.
func TestRedirectorFailover(t *testing.T) {
	const (
		killAt   = 2 * time.Minute
		duration = 4 * time.Minute
		victim   = topology.NodeID(3)
	)
	// Star(4): node 0 is the hub (and the single redirector location, having
	// the smallest average distance), nodes 1-3 are leaves.
	cfg := liveConfig(t, topology.Star(4), 16, 10, duration)
	cfg.Sim.Protocol.ReplicaFloor = 2

	h := startHarness(t, cfg)
	h.Driver.At(killAt, func() {
		if err := h.Fleet.Kill(victim); err != nil {
			t.Errorf("killing node %d: %v", victim, err)
		}
		h.Driver.MarkDown(victim)
	})
	res, err := h.Driver.Run(context.Background())
	if err != nil {
		t.Fatalf("running fleet: %v", err)
	}

	if !h.Fleet.Killed(victim) {
		t.Fatal("victim still alive")
	}
	if res.Failures != 1 {
		t.Errorf("Failures = %d, want 1", res.Failures)
	}
	if !res.FaultsEnabled {
		t.Error("FaultsEnabled = false after a mid-replay crash")
	}
	if res.TotalServed == 0 {
		t.Fatal("no requests served")
	}

	// In-flight requests may fail in the crash's own metrics bucket; every
	// later bucket must be clean — the redirector stopped choosing the dead
	// node's replicas.
	crashBucketEnd := killAt + cfg.Sim.MetricsBucket
	for _, p := range res.FailedSeries {
		if p.T >= crashBucketEnd && p.V != 0 {
			t.Errorf("failed requests %v in bucket at %v, after the crash bucket", p.V, p.T)
		}
	}

	// The floor repaired every object to two replicas before the crash, so
	// an object homed on the victim survives it. Ask the redirector for its
	// replica set and for a fresh redirect: both must name a live host.
	client := &http.Client{
		Timeout: 5 * time.Second,
		CheckRedirect: func(*http.Request, []*http.Request) error {
			return http.ErrUseLastResponse
		},
	}
	// Round-robin homes: object 3 started on the victim in a 4-node fleet.
	obj := int64(victim)
	resp, err := client.Get(h.Fleet.URL(0) + live.PathReplicas + "?obj=" + strconv.FormatInt(obj, 10))
	if err != nil {
		t.Fatalf("replica query: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var rep live.ReplicasReply
	if err := live.Decode(body, &rep); err != nil {
		t.Fatalf("decoding replica reply: %v", err)
	}
	survivors := 0
	for _, host := range rep.Hosts {
		if host != victim {
			survivors++
		}
	}
	if survivors == 0 {
		t.Fatalf("object %d has no surviving replica: hosts %v", obj, rep.Hosts)
	}

	redirect, err := client.Get(h.Fleet.URL(0) + live.PathObj + strconv.FormatInt(obj, 10) + "?g=1&now=" + strconv.FormatInt(int64(duration), 10))
	if err != nil {
		t.Fatalf("object request: %v", err)
	}
	io.Copy(io.Discard, redirect.Body)
	redirect.Body.Close()
	if redirect.StatusCode != http.StatusFound {
		t.Fatalf("object request answered %d, want 302", redirect.StatusCode)
	}
	chosen := redirect.Header.Get(live.HeaderHost)
	if chosen == strconv.Itoa(int(victim)) {
		t.Fatalf("302 chose the dead node %s", chosen)
	}
	if chosen == "" {
		t.Fatal("302 carried no chosen-host header")
	}
}
