package live

import (
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"radar/internal/routing"
	"radar/internal/substrate"
	"radar/internal/topology"
)

// Fleet runs every node of one configuration in-process, each behind its
// own loopback HTTP listener on an ephemeral port — the harness the
// integration tests, the equivalence test, and radar-load's default mode
// drive. Kill closes a node's listener and in-flight connections and stops
// the node's own goroutines (tickers, in-flight client retries), making
// the node indistinguishable from a SIGKILLed process to the rest of the
// fleet: connections refused, no further control traffic. Restart brings a
// killed node back on its original address as a fresh incarnation booted
// from the seed image, the way a crashed process restarts from disk.
type Fleet struct {
	cfg    Config
	routes *routing.Table
	epoch  time.Time
	urls   []string

	mu        sync.Mutex
	nodes     []*Node
	servers   []*http.Server
	listeners []net.Listener
	serveDone []chan struct{}
	killed    []bool
}

// NewFleet builds and starts one node per topology member on
// 127.0.0.1:0 listeners.
func NewFleet(cfg Config) (*Fleet, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.Normalized()
	routes := substrate.Shared(cfg.Sim.Topo).Routes
	n := routes.NumNodes()
	f := &Fleet{
		cfg:       cfg,
		routes:    routes,
		epoch:     time.Now(),
		nodes:     make([]*Node, n),
		urls:      make([]string, n),
		servers:   make([]*http.Server, n),
		listeners: make([]net.Listener, n),
		serveDone: make([]chan struct{}, n),
		killed:    make([]bool, n),
	}
	// Listeners first: every node needs the full URL manifest.
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("live: listening for node %d: %w", i, err)
		}
		f.listeners[i] = ln
		f.urls[i] = "http://" + ln.Addr().String()
	}
	for i := 0; i < n; i++ {
		nd, err := NewNode(cfg, topology.NodeID(i), f.urls, routes)
		if err != nil {
			f.Close()
			return nil, err
		}
		f.startNode(topology.NodeID(i), nd, f.listeners[i], false)
	}
	return f, nil
}

// startNode installs a node behind a listener and boots it. Callers either
// own f exclusively (NewFleet) or hold f.mu (Restart).
func (f *Fleet) startNode(i topology.NodeID, nd *Node, ln net.Listener, recovered bool) {
	f.nodes[i] = nd
	f.listeners[i] = ln
	srv := &http.Server{Handler: nd.Handler()}
	f.servers[i] = srv
	done := make(chan struct{})
	f.serveDone[i] = done
	go func() {
		_ = srv.Serve(ln)
		close(done)
	}()
	nd.Start(f.epoch, recovered)
}

// URLs returns the node base URLs, indexed by node ID.
func (f *Fleet) URLs() []string { return append([]string(nil), f.urls...) }

// URL returns one node's base URL.
func (f *Fleet) URL(i topology.NodeID) string { return f.urls[i] }

// Routes returns the shared routing table.
func (f *Fleet) Routes() *routing.Table { return f.routes }

// Config returns the normalized fleet configuration.
func (f *Fleet) Config() Config { return f.cfg }

// Epoch returns the wall-clock zero of the fleet's virtual time.
func (f *Fleet) Epoch() time.Time { return f.epoch }

// Kill crashes a node: its listener closes, open connections are torn
// down, and the node's goroutines (tickers, client retries) are reaped, so
// every subsequent request to it fails at the transport and nothing of the
// node keeps running — the in-process equivalent of SIGKILL.
func (f *Fleet) Kill(i topology.NodeID) error {
	f.mu.Lock()
	if f.killed[i] {
		f.mu.Unlock()
		return nil
	}
	f.killed[i] = true
	srv, nd, done := f.servers[i], f.nodes[i], f.serveDone[i]
	f.mu.Unlock()
	if nd != nil {
		nd.Stop()
	}
	if srv == nil {
		return nil
	}
	err := srv.Close()
	if done != nil {
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			return fmt.Errorf("live: node %d server did not stop", i)
		}
	}
	return err
}

// Restart brings a killed node back on its original address as a fresh
// incarnation: cold state rebuilt from the configuration (the seed image a
// real process reloads from disk), a new boot ID, and — in free-running
// mode — re-registration of its held replicas with the fleet's
// redirectors before the node reports ready.
func (f *Fleet) Restart(i topology.NodeID) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.killed[i] {
		return fmt.Errorf("live: restarting node %d, which is not killed", i)
	}
	addr := f.listeners[i].Addr().String()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("live: relistening node %d on %s: %w", i, addr, err)
	}
	nd, err := NewNode(f.cfg, i, f.urls, f.routes)
	if err != nil {
		ln.Close()
		return err
	}
	f.killed[i] = false
	f.startNode(i, nd, ln, true)
	return nil
}

// SetPartition cuts (or heals) the control plane between nodes a and b:
// each side's peer-table entry for the other becomes poisonURL, which the
// RPC client refuses without an attempt (ErrPeerUnreachable), or its
// manifest URL again. A killed node is skipped: it has no peer table, and
// Restart boots a healed one. Client 302s read the immutable manifest, so
// a partition cuts control, not data.
func (f *Fleet) SetPartition(a, b topology.NodeID, cut bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, edge := range [2][2]topology.NodeID{{a, b}, {b, a}} {
		on, peer := edge[0], edge[1]
		if f.killed[on] {
			continue
		}
		url := poisonURL
		if !cut {
			url = f.urls[peer]
		}
		nd := f.nodes[on]
		nd.peerMu.Lock()
		nd.peers[peer] = url
		nd.peerMu.Unlock()
	}
}

// Killed reports whether a node has been killed.
func (f *Fleet) Killed(i topology.NodeID) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.killed[i]
}

// Close tears the whole fleet down, reaping every node's goroutines.
func (f *Fleet) Close() {
	f.mu.Lock()
	var wait []chan struct{}
	for i, srv := range f.servers {
		if f.nodes[i] != nil {
			f.nodes[i].Stop()
		}
		if srv != nil && !f.killed[i] {
			_ = srv.Close()
			f.killed[i] = true
			if f.serveDone[i] != nil {
				wait = append(wait, f.serveDone[i])
			}
		}
	}
	for _, ln := range f.listeners {
		if ln != nil {
			_ = ln.Close() // idempotent; srv.Close already closed started ones
		}
	}
	f.mu.Unlock()
	for _, done := range wait {
		select {
		case <-done:
		case <-time.After(5 * time.Second):
		}
	}
}

// WaitReady polls every live node's readiness endpoint until it answers or
// the deadline passes. Ready means booted (tickers running, recovery
// re-registration done), which is what restart coordination must gate on.
func (f *Fleet) WaitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	client := &http.Client{}
	defer client.CloseIdleConnections()
	for i, u := range f.urls {
		if f.Killed(topology.NodeID(i)) {
			continue
		}
		for {
			// A node that accepts and never answers must not hold the
			// wait past the deadline.
			client.Timeout = max(time.Until(deadline), time.Millisecond)
			res, err := client.Get(u + PathReady)
			if err == nil {
				res.Body.Close()
				if res.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("live: node %d not answering %s after %v", i, PathReady, timeout)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nil
}
