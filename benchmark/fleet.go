package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"radar/internal/live"
	"radar/internal/routing"
	"radar/internal/scenario"
	"radar/internal/topology"
)

// buildLiveConfig turns a live workload's DSL into the fleet it runs on.
func buildLiveConfig(w workloadDef, seed int64, quick bool) (live.Config, error) {
	sp, err := scenario.ParseSpec(w.dsl(seed, quick))
	if err != nil {
		return live.Config{}, err
	}
	cfg, err := sp.Config()
	if err != nil {
		return live.Config{}, err
	}
	lc := live.Config{Sim: cfg}
	switch w.Kind {
	case kindClosed:
		// Default tickers (20 s measurement, 100 s placement): no placement
		// pass starts inside the run. The modelled FCFS queue is given room
		// so it never answers 503 and the number is the real request path.
		lc.FreeRunning = true
		lc.Sim.Server.CapacityRPS = 1e5
	case kindOpen:
		// Table 1 capacity, but placement every 5 s so rounds overlap the
		// load. The jitter is kept minimal (zero would select the default)
		// so every run's first round starts at the same instant.
		lc.FreeRunning = true
		lc.FreeRun = live.FreeRun{Measurement: time.Second, Placement: 5 * time.Second, Jitter: 0.001}
	}
	if err := lc.Validate(); err != nil {
		return live.Config{}, err
	}
	return lc.Normalized(), nil
}

// fleet is a running loopback fleet, either the product's own live.Fleet or
// (traced runs) one assembled from live.NewNode so that every node's
// handler can be wrapped in the timing middleware.
type fleet struct {
	cfg     live.Config
	urls    []string
	redLocs []topology.NodeID
	epoch   time.Time // the wall-clock zero the nodes' tickers count from
	close   func()
}

// fleetReadyTimeout bounds the wait for every node to report ready.
const fleetReadyTimeout = 20 * time.Second

func startFleet(cfg live.Config, st *serverTrace) (*fleet, error) {
	if st == nil {
		f, err := live.NewFleet(cfg)
		if err != nil {
			return nil, err
		}
		if err := f.WaitReady(fleetReadyTimeout); err != nil {
			f.Close()
			return nil, err
		}
		return &fleet{
			cfg:     f.Config(),
			urls:    f.URLs(),
			redLocs: live.RedirectorLocations(f.Routes(), cfg.Sim.NumRedirectors),
			epoch:   f.Epoch(),
			close:   f.Close,
		}, nil
	}
	return startTracedFleet(cfg, st)
}

// startTracedFleet mirrors live.NewFleet — listeners first, because every
// node needs the full URL manifest — with the middleware around each
// node's handler.
func startTracedFleet(cfg live.Config, st *serverTrace) (*fleet, error) {
	routes := routing.New(cfg.Sim.Topo)
	n := routes.NumNodes()
	listeners := make([]net.Listener, 0, n)
	urls := make([]string, n)
	closeListeners := func() {
		for _, ln := range listeners {
			ln.Close()
		}
	}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeListeners()
			return nil, fmt.Errorf("listening for node %d: %w", i, err)
		}
		listeners = append(listeners, ln)
		urls[i] = "http://" + ln.Addr().String()
	}
	nodes := make([]*live.Node, n)
	for i := range nodes {
		nd, err := live.NewNode(cfg, topology.NodeID(i), urls, routes)
		if err != nil {
			closeListeners()
			return nil, err
		}
		nodes[i] = nd
	}
	servers := make([]*http.Server, n)
	var serving sync.WaitGroup
	epoch := time.Now()
	for i, nd := range nodes {
		srv := &http.Server{Handler: st.wrap(nd.Handler())}
		servers[i] = srv
		serving.Add(1)
		go func(ln net.Listener) {
			defer serving.Done()
			_ = srv.Serve(ln) // returns on Close
		}(listeners[i])
		nd.Start(epoch, false)
	}
	return &fleet{
		cfg:     cfg,
		urls:    urls,
		redLocs: live.RedirectorLocations(routes, cfg.Sim.NumRedirectors),
		epoch:   epoch,
		close: func() {
			for i, nd := range nodes {
				nd.Stop()
				servers[i].Close()
			}
			serving.Wait()
		},
	}, nil
}

// benchHeader carries "request:parent-span" from the load generator to the
// nodes on both hops, so a handler span can name the client hop that
// caused it.
const benchHeader = "X-Bench-Req"

// serverTrace records one span per handled HTTP request on every node.
type serverTrace struct {
	tr *tracer
}

// endpointSpan names the span of a request path: the endpoints the issue's
// per-layer metrics are defined on get their own name, the rest share one.
func endpointSpan(path string) string {
	switch {
	case strings.HasPrefix(path, live.PathObj):
		return "node.obj"
	case strings.HasPrefix(path, live.PathServe):
		return "node.serve"
	}
	switch path {
	case live.PathCreateObj:
		return "node.createobj"
	case live.PathNotify:
		return "node.notify"
	case live.PathLoad:
		return "node.load"
	case live.PathComplete:
		return "node.complete"
	case live.PathMeasure:
		return "node.measure"
	case live.PathPlace:
		return "node.place"
	}
	return "node.other"
}

func (st *serverTrace) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req, parent int64
		if v := r.Header.Get(benchHeader); v != "" {
			a, b, _ := strings.Cut(v, ":")
			req, _ = strconv.ParseInt(a, 10, 64)
			parent, _ = strconv.ParseInt(b, 10, 64)
		}
		start := st.tr.now()
		h.ServeHTTP(w, r)
		st.tr.add(0, parent, req, endpointSpan(r.URL.Path), start, st.tr.now())
	})
}

// scrapeTimeout bounds one control-endpoint scrape. /ctl/stats takes the
// node lock, so a node in the middle of a placement pass does not answer
// until the pass ends; such a node is counted busy, not waited for.
const scrapeTimeout = 2 * time.Second

// fleetStats scrapes every node's /ctl/stats; a node that does not answer
// in time has a nil entry.
func (f *fleet) fleetStats() []*live.StatsReply {
	client := &http.Client{Timeout: scrapeTimeout}
	defer client.CloseIdleConnections()
	replies := make([]*live.StatsReply, len(f.urls))
	var wg sync.WaitGroup
	for i, u := range f.urls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var rep live.StatsReply
			if getJSON(client, u+live.PathStats, &rep) == nil {
				replies[i] = &rep
			}
		}()
	}
	wg.Wait()
	return replies
}

// statsDelta sums what the nodes that answered both scrapes did between
// them, and counts the nodes that were busy at either.
func statsDelta(before, after []*live.StatsReply) (d live.StatsReply, busy int) {
	for i, b := range before {
		a := after[i]
		if a == nil || b == nil {
			busy++
			continue
		}
		d.TotalServed += a.TotalServed - b.TotalServed
		d.CreateExecutions += a.CreateExecutions - b.CreateExecutions
		d.CreatePeakConcurrency = max(d.CreatePeakConcurrency, a.CreatePeakConcurrency)
		d.RPCAttempts += a.RPCAttempts - b.RPCAttempts
		d.RPCRetries += a.RPCRetries - b.RPCRetries
		d.RPCLost += a.RPCLost - b.RPCLost
		d.RPCBudgetDenials += a.RPCBudgetDenials - b.RPCBudgetDenials
		d.PlaceTicks += a.PlaceTicks - b.PlaceTicks
	}
	return d, busy
}

// lostObjects asks every redirector for its census and returns how many
// objects have no replica recorded.
func (f *fleet) lostObjects() (int, error) {
	client := &http.Client{Timeout: scrapeTimeout}
	defer client.CloseIdleConnections()
	zero := 0
	for _, loc := range f.redLocs {
		var rep live.CensusReply
		if err := getJSON(client, f.urls[loc]+live.PathCensus, &rep); err != nil {
			return 0, fmt.Errorf("redirector %d census: %w", loc, err)
		}
		zero += rep.Zero
	}
	return zero, nil
}

type wireReply interface{ Validate() error }

func getJSON(client *http.Client, url string, into wireReply) error {
	res, err := client.Get(url)
	if err != nil {
		return err
	}
	defer res.Body.Close()
	data, err := io.ReadAll(res.Body)
	if err != nil {
		return err
	}
	if res.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, res.StatusCode)
	}
	return live.Decode(data, into)
}
