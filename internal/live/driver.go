package live

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"radar/internal/object"
	"radar/internal/protocol"
	"radar/internal/sim"
	"radar/internal/store"
	"radar/internal/substrate"
	"radar/internal/topology"
)

// Driver replays the simulator's event schedule against a live fleet. It
// holds no schedule of its own: the run loop — generators, request path,
// ticks, network pricing, metrics, Results assembly — is sim.Simulation's,
// built over an httpFleet that turns each fleet call into one request to a
// real node. Virtual time is the loop's; the clock-less nodes only learn
// it from request parameters. Both worlds execute the same loop, so a
// healthy fleet reproduces the simulation's decision sequence and metrics;
// the equivalence test pins the transport.
//
// The loop is single-threaded: every control operation in the fleet is one
// engine event, executed serially. That is also what makes the nodes'
// cross-node RPCs deadlock-free (no two placement passes overlap).
type Driver struct {
	loop  *sim.Simulation
	fleet *httpFleet
}

// driverHTTPTimeout bounds every driver request as a backstop; loopback
// requests answer in microseconds and killed listeners refuse immediately,
// so the limit only matters if a node wedges entirely.
const driverHTTPTimeout = 30 * time.Second

// NewDriver builds a driver for a fleet reachable at urls (base URL per
// node ID, matching the configured topology).
func NewDriver(cfg Config, urls []string) (*Driver, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.Normalized()
	n := cfg.Sim.Topo.NumNodes()
	if len(urls) != n {
		return nil, fmt.Errorf("live: %d node URLs for %d nodes", len(urls), n)
	}
	f := &httpFleet{
		urls:    append([]string(nil), urls...),
		redLocs: sim.RedirectorLocs(&cfg.Sim, substrate.Shared(cfg.Sim.Topo).Routes),
		down:    make([]bool, n),
		client: &http.Client{
			Timeout: driverHTTPTimeout,
			// 302s are not followed: the redirect's arrival at the chosen
			// host is a separate loop event at its virtual time.
			CheckRedirect: func(*http.Request, []*http.Request) error {
				return http.ErrUseLastResponse
			},
		},
	}
	loop, err := sim.NewOver(cfg.Sim, func(record protocol.Recorder) (sim.Fleet, error) {
		f.record = record
		return f, nil
	})
	if err != nil {
		return nil, err
	}
	return &Driver{loop: loop, fleet: f}, nil
}

// At schedules fn to run as a loop event at virtual time at, before Run is
// called. Tests use it to inject mid-replay actions — killing a node,
// marking it down — at a deterministic point of the schedule without
// racing the single-threaded driver.
func (d *Driver) At(at time.Duration, fn func()) { d.loop.At(at, fn) }

// MarkDown records a node as crashed and broadcasts the mark to the
// remaining fleet, so redirectors fail subsequent choices over. Tests call
// it right after Fleet.Kill; the loop also does it itself when a request
// to the node fails at the transport.
func (d *Driver) MarkDown(i topology.NodeID) { d.loop.MarkDown(i) }

// Close releases the driver's idle HTTP connections; their keep-alive
// goroutines would otherwise outlive the run and trip the goroutine-leak
// check the integration harness runs at teardown.
func (d *Driver) Close() { d.fleet.client.CloseIdleConnections() }

// Decisions returns the replayed placement decision sequence (migrate,
// replicate, drop, refuse, defer — copies excluded), in the order the
// fleet's placement passes produced them. The equivalence test compares
// this against the simulator's observer sequence.
func (d *Driver) Decisions() []Event {
	return append([]Event(nil), d.fleet.decisions...)
}

// Run replays the full schedule for cfg.Sim.Duration of virtual time and
// returns the results in the simulator's schema, less what needs
// in-process state (the invariant sweep).
// A driver runs once; a second call returns sim.ErrAlreadyRan.
func (d *Driver) Run(ctx context.Context) (*sim.Results, error) {
	return d.loop.RunContext(ctx)
}

// httpFleet is the sim.Fleet of real nodes: request/response plumbing and
// nothing else. Control operations are single un-retried requests — they
// are not idempotent, so a failure reports the node Lost (the loop marks
// it down) instead of retrying; the retried, idempotent RPC discipline
// lives in the nodes' own client.
type httpFleet struct {
	urls    []string
	redLocs []topology.NodeID
	client  *http.Client
	record  protocol.Recorder
	// down lists the nodes the loop has marked down. They are never
	// dialed again: a live node's redirector dies with it, so calls to
	// one answer Lost without a connection attempt.
	down      []bool
	decisions []Event
}

// objectURL is the request line, at the node whose base URL is base,
// shared by the redirecting front-end and the serve endpoint.
func objectURL(base, path string, id object.ID, g topology.NodeID, now time.Duration) string {
	return fmt.Sprintf("%s%s%d?g=%d&now=%d", base, path, int64(id), int(g), int64(now))
}

// fetch issues one GET and discards the body; the answer is in the status
// and headers.
func (f *httpFleet) fetch(url string) (*http.Response, error) {
	res, err := f.client.Get(url)
	if err != nil {
		return nil, err
	}
	_, _ = io.Copy(io.Discard, res.Body)
	res.Body.Close()
	return res, nil
}

// Choose implements sim.Fleet: GET the object from its redirector, which
// answers 302 naming the chosen host, or 404 when no replica is choosable
// (every copy on crashed hosts). A malformed answer from a half-dead node
// counts as a transport failure.
func (f *httpFleet) Choose(now time.Duration, red int, g topology.NodeID, id object.ID) (topology.NodeID, sim.Outcome) {
	loc := f.redLocs[red]
	if f.down[loc] {
		return 0, sim.Lost
	}
	res, err := f.fetch(objectURL(f.urls[loc], PathObj, id, g, now))
	if err != nil {
		return 0, sim.Lost
	}
	if res.StatusCode == http.StatusNotFound {
		return 0, sim.Refused
	}
	host, err := strconv.Atoi(res.Header.Get(HeaderHost))
	if res.StatusCode != http.StatusFound || err != nil || host < 0 || host >= len(f.urls) {
		return 0, sim.Lost
	}
	return topology.NodeID(host), sim.OK
}

// Admit implements sim.Fleet: GET the serve URL the redirector's 302
// pointed at — the loop prices the redirector→host hop with the node's own
// rule, so now equals the 302's arrival time — and read the FCFS
// completion time, or the client-timeout refusal, from the headers.
func (f *httpFleet) Admit(now time.Duration, h, g topology.NodeID, id object.ID) (time.Duration, sim.Outcome) {
	res, err := f.fetch(objectURL(f.urls[h], PathServe, id, g, now))
	if err != nil {
		return 0, sim.Lost
	}
	if res.StatusCode == http.StatusServiceUnavailable && res.Header.Get(HeaderTimeout) != "" {
		return 0, sim.Refused
	}
	done, err := strconv.ParseInt(res.Header.Get(HeaderDone), 10, 64)
	if res.StatusCode != http.StatusOK || err != nil {
		return 0, sim.Lost
	}
	return time.Duration(done), sim.OK
}

// Complete implements sim.Fleet.
func (f *httpFleet) Complete(h, g topology.NodeID, id object.ID) bool {
	msg := CompleteMsg{Object: int64(id), Gateway: int(g)}
	return Post(f.client, f.urls[h]+PathComplete, &msg, nil) == nil
}

// Measure implements sim.Fleet.
func (f *httpFleet) Measure(now time.Duration, h topology.NodeID) (actual, lower, upper float64, ok bool) {
	var rep MeasureReply
	if f.down[h] || Post(f.client, f.urls[h]+PathMeasure, &TickMsg{Now: int64(now)}, &rep) != nil {
		return 0, 0, 0, false
	}
	return rep.Load, rep.Lower, rep.Upper, true
}

// Place implements sim.Fleet: the pass's reply carries every event it
// caused.
func (f *httpFleet) Place(now time.Duration, h topology.NodeID) bool {
	var rep PlaceReply
	if Post(f.client, f.urls[h]+PathPlace, &TickMsg{Now: int64(now)}, &rep) != nil {
		return false
	}
	f.report(rep.Events)
	return true
}

// Census implements sim.Fleet.
func (f *httpFleet) Census(red int) (total, below int, ok bool) {
	var rep CensusReply
	if loc := f.redLocs[red]; f.down[loc] || Scrape(f.client, f.urls[loc]+PathCensus, &rep) != nil {
		return 0, 0, false
	}
	return rep.TotalReplicas, rep.BelowFloor, true
}

// MarkDown implements sim.Fleet: broadcast the mark to the live fleet, so
// redirectors stop choosing the dead node's replicas.
func (f *httpFleet) MarkDown(_ time.Duration, h topology.NodeID) {
	f.down[h] = true
	MarkAll(f.client, f.urls, h, true, func(j topology.NodeID) bool { return f.down[j] })
}

// MarkAll posts host h's reachability mark to every node skip does not
// name, best-effort: a node that misses it rediscovers reachability through
// its own RPC failures. It is the one broadcast of a crash or a recovery:
// the driver's for a node its loop marked down, the chaos target's for the
// nodes it kills and restarts.
func MarkAll(client *http.Client, urls []string, h topology.NodeID, down bool, skip func(topology.NodeID) bool) {
	msg := MarkMsg{Host: int(h), Down: down}
	for i, u := range urls {
		if !skip(topology.NodeID(i)) {
			_ = Post(client, u+PathMark, &msg, nil)
		}
	}
}

// Stats implements sim.Fleet: the per-node counters.
func (f *httpFleet) Stats(r *sim.Results) {
	r.HostStats = make([]protocol.HostStats, len(f.urls))
	for i := range f.urls {
		var st StatsReply
		if f.down[i] || Scrape(f.client, f.urls[i]+PathStats, &st) != nil {
			continue
		}
		r.HostStats[i] = st.Host
		r.MaxQueueLen = max(r.MaxQueueLen, st.MaxQueueLen)
		r.TotalServed += st.TotalServed
		r.StoreLayers = store.Aggregate(r.StoreLayers, st.StoreLayers)
	}
}

// report hands a placement pass's events, copies included, to the loop's
// recorder and keeps the decisions. The list is complete and in causal
// order, and the pass is one loop event, so every charge is issued in the
// in-memory fleet's order at the in-memory fleet's instant: link
// busy-until state (Net.Contention) evolves as it does in the simulation.
func (f *httpFleet) report(evs []Event) {
	for _, e := range evs {
		f.record(e)
		if e.Kind != EventCopy {
			f.decisions = append(f.decisions, e)
		}
	}
}

// Post issues one un-retried POST of the wire message req with client and
// decodes and validates the 200 reply's JSON body into resp (a nil resp
// discards it); any other status is an error carrying the reply body. It
// is the one write path of the fleet's endpoints: the driver, MarkAll and
// the chaos target post through it.
func Post(client *http.Client, url string, req any, resp validator) error {
	res, err := client.Post(url, "application/json", bytes.NewReader(Encode(req)))
	if err != nil {
		return err
	}
	return readReply(res, resp)
}

// Scrape issues one un-retried GET with client and decodes and validates
// the 200 reply's JSON body into resp. It is the one read path of the
// fleet's /ctl endpoints: the driver and the invariant checker both scrape
// through it.
func Scrape(client *http.Client, url string, resp validator) error {
	res, err := client.Get(url)
	if err != nil {
		return err
	}
	return readReply(res, resp)
}

func readReply(res *http.Response, resp validator) error {
	data, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		return err
	}
	if res.StatusCode != http.StatusOK {
		return fmt.Errorf("live: %s: status %d: %s", res.Request.URL, res.StatusCode, data)
	}
	return decodeReply(data, resp)
}
