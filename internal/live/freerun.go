package live

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"radar/internal/object"
	"radar/internal/sim"
	"radar/internal/substrate"
	"radar/internal/topology"
	"radar/internal/workload"
)

// FreeDriver is the free-running mode's load generator: it only generates
// load. One goroutine per gateway paces requests in real time (the
// scenario's per-gateway rate, Poisson if configured), each request walks
// redirector -> 302 -> replica host over real HTTP, and the nodes do
// everything else on their own clocks. There is no event engine, no
// virtual time on the wire that anyone trusts, and no sequence to compare
// — correctness is asserted by the invariant checker (package live/check)
// scraping the fleet, not by equality with the simulator.
//
// The driver records every failed request with its wall-clock time so the
// checker can assert failures are confined to crash windows, and exposes
// SetLatency as the chaos controller's client-hop delay injection point.
type FreeDriver struct {
	cfg     Config
	urls    []string
	n       int
	redLocs []topology.NodeID
	client  *http.Client

	latency atomic.Int64
	epoch   time.Time

	genMu sync.Mutex // serialises the generators' Next

	served   atomic.Int64
	failed   atomic.Int64
	timedOut atomic.Int64

	failMu   sync.Mutex
	failures []time.Time

	ran bool
}

// freeDriverHTTPTimeout bounds each request end to end; a killed node
// refuses instantly, so the limit only matters for a wedged one.
const freeDriverHTTPTimeout = 5 * time.Second

// NewFreeDriver builds a free-running load generator for a fleet reachable
// at urls. The configuration must have FreeRunning set — pacing a
// free-running fleet with the driver-paced Driver (or vice versa) would
// silently mix time regimes.
func NewFreeDriver(cfg Config, urls []string) (*FreeDriver, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.Normalized()
	if !cfg.FreeRunning {
		return nil, fmt.Errorf("live: FreeDriver needs Config.FreeRunning (use Driver for driver-paced replay)")
	}
	routes := substrate.Shared(cfg.Sim.Topo).Routes
	n := routes.NumNodes()
	if len(urls) != n {
		return nil, fmt.Errorf("live: %d node URLs for %d nodes", len(urls), n)
	}
	return &FreeDriver{
		cfg:     cfg,
		urls:    append([]string(nil), urls...),
		n:       n,
		redLocs: sim.RedirectorLocs(&cfg.Sim, routes),
		client:  &http.Client{Timeout: freeDriverHTTPTimeout},
	}, nil
}

// Config returns the normalized configuration the driver generates load for.
func (d *FreeDriver) Config() Config { return d.cfg }

// SetLatency injects a fixed delay before every generated request — the
// chaos controller's client-hop latency.
func (d *FreeDriver) SetLatency(lat time.Duration) { d.latency.Store(int64(lat)) }

// Run generates load for the configured duration of wall time (or until
// ctx is cancelled). Run must be called at most once.
func (d *FreeDriver) Run(ctx context.Context) error {
	if d.ran {
		return fmt.Errorf("live: free driver already ran")
	}
	d.ran = true
	runCtx, cancel := context.WithTimeout(ctx, d.cfg.Sim.Duration)
	defer cancel()
	d.epoch = time.Now()
	var wg sync.WaitGroup
	for i := 0; i < d.n; i++ {
		g := topology.NodeID(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.generate(runCtx, g)
		}()
	}
	wg.Wait()
	d.client.CloseIdleConnections()
	return ctx.Err()
}

// generate paces one gateway's request stream in real time. Virtual time
// is wall time in this mode, so a configured workload switch takes effect
// WorkloadSwitch.At after the run's start.
func (d *FreeDriver) generate(ctx context.Context, g topology.NodeID) {
	rng := workload.Stream(d.cfg.Sim.Seed, workload.GatewayStream(int(g)))
	// The simulator's gateway pacing, mapped to wall time.
	pace := sim.GatewayPacing(&d.cfg.Sim)
	timer := time.NewTimer(pace.Phase(g, d.n))
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-timer.C:
		}
		gen := d.cfg.Sim.Workload
		if sw := d.cfg.Sim.WorkloadSwitch; sw.To != nil && time.Since(d.epoch) >= sw.At {
			gen = sw.To
		}
		d.genMu.Lock()
		id := gen.Next(g, rng)
		d.genMu.Unlock()
		d.request(ctx, g, id)
		timer.Reset(pace.Gap(rng))
	}
}

// request walks one object request end to end: redirector, 302, replica
// host (the HTTP client follows the redirect). 200 served, the
// client-timeout refusal is recorded as timed out, anything else — a
// refused connection, a 404 from a replica-less redirector, a malformed
// answer — is a failed request stamped with wall-clock time for the
// checker's crash-window confinement rule.
func (d *FreeDriver) request(ctx context.Context, g topology.NodeID, id object.ID) {
	if lat := time.Duration(d.latency.Load()); lat > 0 {
		t := time.NewTimer(lat)
		select {
		case <-ctx.Done():
			t.Stop()
			return
		case <-t.C:
		}
	}
	loc := d.redLocs[sim.RedirectorIndex(id, len(d.redLocs))]
	u := objectURL(d.urls[loc], PathObj, id, g, time.Since(d.epoch))
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		d.noteFailure()
		return
	}
	res, err := d.client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return // shutdown, not a protocol failure
		}
		d.noteFailure()
		return
	}
	_, _ = io.Copy(io.Discard, res.Body)
	res.Body.Close()
	switch {
	case res.StatusCode == http.StatusOK:
		d.served.Add(1)
	case res.StatusCode == http.StatusServiceUnavailable && res.Header.Get(HeaderTimeout) != "":
		d.timedOut.Add(1)
	default:
		d.noteFailure()
	}
}

func (d *FreeDriver) noteFailure() {
	d.failed.Add(1)
	d.failMu.Lock()
	d.failures = append(d.failures, time.Now())
	d.failMu.Unlock()
}

// Failures returns the wall-clock times of every failed request.
func (d *FreeDriver) Failures() []time.Time {
	d.failMu.Lock()
	defer d.failMu.Unlock()
	return append([]time.Time(nil), d.failures...)
}

// Results assembles the free run's totals in the simulator's results
// schema, with fleetCensus the mean replica count per object. Free-running
// mode has no virtual-time metrics pipeline — the series and network
// accounting stay empty; the counters and the census are real.
func (d *FreeDriver) Results(fleetCensus float64) *sim.Results {
	return &sim.Results{
		WorkloadName:     d.cfg.Sim.Workload.Name(),
		Policy:           d.cfg.Sim.Policy,
		Dynamic:          d.cfg.Sim.DynamicPlacement,
		Duration:         d.cfg.Sim.Duration,
		Seed:             d.cfg.Sim.Seed,
		TotalServed:      d.served.Load(),
		FailedRequests:   d.failed.Load(),
		TimedOutRequests: d.timedOut.Load(),
		AvgReplicas:      fleetCensus,
		HighWatermark:    d.cfg.Sim.Protocol.HighWatermark,
		StoreSpec:        d.cfg.Sim.Store.String(),
	}
}
