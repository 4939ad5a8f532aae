package main

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"radar/internal/live"
	"radar/internal/topology"
	"radar/internal/workload"
)

// arrival is one generated request: which gateway asks for which object,
// and (open loop) when it is due, as an offset from the window's start.
type arrival struct {
	gateway int32
	object  int32
	due     time.Duration
}

// loadgenStream keys the load generator's PRNG off the workload seed on a
// stream of its own, so it never shares draws with the program under test.
const loadgenStream = 1 << 40

// closedSchedule pre-generates count (gateway, object) pairs.
func closedSchedule(seed int64, gen workload.Generator, gateways, count int) []arrival {
	rng := workload.Stream(seed, loadgenStream)
	out := make([]arrival, count)
	for i := range out {
		g := rng.Intn(gateways)
		out[i] = arrival{gateway: int32(g), object: int32(gen.Next(topology.NodeID(g), rng))}
	}
	return out
}

// openSchedule pre-generates a Poisson arrival process of the given rate
// over the window.
func openSchedule(seed int64, gen workload.Generator, gateways int, rate float64, window time.Duration) []arrival {
	rng := workload.Stream(seed, loadgenStream)
	var out []arrival
	at := time.Duration(0)
	for {
		at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if at >= window {
			return out
		}
		g := rng.Intn(gateways)
		out = append(out, arrival{gateway: int32(g), object: int32(gen.Next(topology.NodeID(g), rng)), due: at})
	}
}

// Request outcomes.
const (
	outServed    = iota // 200 with exactly the object's bytes
	outRefused          // an explicit non-200 answer from a node
	outFailed           // transport error or a malformed answer
	outTimedOut         // a hop went unanswered for clientTimeout: a miss, not a wrong answer
	outAbandoned        // still unanswered when the run's deadline cancelled it
)

// sample is one request as the client saw it.
type sample struct {
	outcome  int8
	reused   int8          // hops that reused a keep-alive connection (traced runs)
	total    time.Duration // from the instant the request was due
	redirect time.Duration // /obj hop
	serve    time.Duration // /serve hop
	late     time.Duration // how late the generator itself sent it
}

// requester walks one object request end to end the way a browser would:
// GET /obj/{id} on the object's redirector, then the 302's target. The
// redirect is followed by hand so each hop is timed and carries the
// correlation header.
type requester struct {
	client  *http.Client
	urls    []string
	redLocs []topology.NodeID
	size    int64
	tr      *tracer
	nextReq atomic.Int64
}

// newRequester builds the client; one hop may take clientTimeout.
func newRequester(f *fleet) *requester {
	transport := &http.Transport{
		// Room for every worker to keep a connection to every node, so
		// connection set-up is out of the measured path after warm-up.
		MaxIdleConns:        2 * len(f.urls) * max(2, runtime.NumCPU()),
		MaxIdleConnsPerHost: 2 * max(2, runtime.NumCPU()),
		IdleConnTimeout:     2 * time.Minute,
	}
	return &requester{
		client: &http.Client{
			Transport: transport,
			Timeout:   clientTimeout,
			CheckRedirect: func(*http.Request, []*http.Request) error {
				return http.ErrUseLastResponse
			},
		},
		urls:    f.urls,
		redLocs: f.redLocs,
		size:    int64(f.cfg.Sim.Universe.SizeBytes),
	}
}

func (rq *requester) close() { rq.client.CloseIdleConnections() }

// hop issues one GET and returns the response's status, Location and body
// length, reporting whether the connection was reused when traced.
func (rq *requester) hop(ctx context.Context, url string, req, parent int64, reused *int8) (status int, location string, n int64, err error) {
	if rq.tr != nil {
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{GotConn: func(info httptrace.GotConnInfo) {
			if info.Reused {
				*reused++
			}
		}})
	}
	r, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, "", 0, err
	}
	if rq.tr != nil {
		r.Header.Set(benchHeader, strconv.FormatInt(req, 10)+":"+strconv.FormatInt(parent, 10))
	}
	res, err := rq.client.Do(r)
	if err != nil {
		return 0, "", 0, err
	}
	n, err = io.Copy(io.Discard, res.Body)
	res.Body.Close()
	return res.StatusCode, res.Header.Get("Location"), n, err
}

// do carries one arrival to its outcome. due is when the request should
// have been sent; the total latency is timed from there.
func (rq *requester) do(ctx context.Context, a arrival, due time.Time) sample {
	var s sample
	var req, root, hop1, hop2 int64
	if rq.tr != nil {
		req = rq.nextReq.Add(1)
		root, hop1, hop2 = rq.tr.newID(), rq.tr.newID(), rq.tr.newID()
	}
	loc := rq.redLocs[int(a.object)%len(rq.redLocs)]
	buf := make([]byte, 0, 96)
	buf = append(buf, rq.urls[loc]...)
	buf = append(buf, live.PathObj...)
	buf = strconv.AppendInt(buf, int64(a.object), 10)
	buf = append(buf, "?g="...)
	buf = strconv.AppendInt(buf, int64(a.gateway), 10)
	buf = append(buf, "&now=0"...)

	t0 := time.Now()
	status, target, _, err := rq.hop(ctx, string(buf), req, hop1, &s.reused)
	t1 := time.Now()
	s.redirect = t1.Sub(t0)
	switch {
	case err != nil:
		s.outcome = failure(ctx, err)
	case status != http.StatusFound || target == "":
		s.outcome = outRefused
	default:
		var n int64
		status, _, n, err = rq.hop(ctx, target, req, hop2, &s.reused)
		t2 := time.Now()
		s.serve = t2.Sub(t1)
		switch {
		case err != nil:
			s.outcome = failure(ctx, err)
		case status != http.StatusOK:
			s.outcome = outRefused
		case n != rq.size:
			s.outcome = outFailed // a 200 must carry exactly the object's bytes
		}
		if rq.tr != nil {
			rq.tr.add(hop2, root, req, "client.hop_serve", int64(t1.Sub(rq.tr.epoch)), int64(t2.Sub(rq.tr.epoch)))
		}
	}
	end := time.Now()
	s.total = end.Sub(due)
	if rq.tr != nil {
		rq.tr.add(hop1, root, req, "client.hop_redirect", int64(t0.Sub(rq.tr.epoch)), int64(t1.Sub(rq.tr.epoch)))
		rq.tr.add(root, 0, req, "client.request", int64(due.Sub(rq.tr.epoch)), int64(end.Sub(rq.tr.epoch)))
	}
	return s
}

// failure classifies a hop that returned an error: cut off by the run's own
// deadline, unanswered for clientTimeout, or broken.
func failure(ctx context.Context, err error) int8 {
	var ne net.Error
	switch {
	case ctx.Err() != nil:
		return outAbandoned
	case errors.As(err, &ne) && ne.Timeout():
		return outTimedOut
	}
	return outFailed
}

// harnessBytes is the heap the load generator itself holds at the end of a
// phase: its schedule and its sample buffers.
func harnessBytes(sched []arrival, perWorker [][]sample) uint64 {
	total := uint64(cap(sched)) * uint64(unsafe.Sizeof(arrival{}))
	for _, ws := range perWorker {
		total += uint64(cap(ws)) * uint64(unsafe.Sizeof(sample{}))
	}
	return total
}

// workers is the number of requests the closed loop keeps in flight: one per
// processor, since the fleet under test shares the machine with it.
func workers() int { return max(1, runtime.NumCPU()) }

// openLoopWorkers is how many goroutines share an open loop's schedule. On a
// fleet that answers, a tenth of one request is in flight at the offered
// rate and all but one of them sleep; when nodes stall, a stalled node holds
// up only the workers that reached it — a 64th of the schedule each — so
// the misses grow with how many nodes stall and for how long, where two
// workers would both be stuck behind the first stalled node.
const openLoopWorkers = 64

// closedBlockLen is how much closed-loop work makes one block.
const closedBlockLen = 2 * time.Second

// closedLoop sends requests back to back from every worker until the
// window ends: each worker's next request leaves when its previous one
// completed, so a slower fleet receives less load. The loop runs in
// stretches of lapEvery with every worker stopped for one lap of the
// reference loop between two stretches; the stretches are gathered into
// blocks of closedBlockLen, and the window's unfinished last block is left
// out of the blocks (its samples are kept).
func (rq *requester) closedLoop(ctx context.Context, sched []arrival, window time.Duration, ref *refLoop) ([][]sample, []block) {
	k := workers()
	out := make([][]sample, k)
	for w := range out {
		out[w] = make([]sample, 0, 1<<16)
	}
	var blocks []block
	var cur block
	next := 0 // the schedule entry the next stretch starts at
	deadline := time.Now().Add(window)
	for time.Now().Before(deadline) && ctx.Err() == nil {
		start := time.Now()
		end := start.Add(lapEvery)
		issued := make([]int, k)
		served := make([]int64, k)
		var wg sync.WaitGroup
		for w := 0; w < k; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := next + w; ; i += k {
					now := time.Now()
					if !now.Before(end) || ctx.Err() != nil {
						break
					}
					s := rq.do(ctx, sched[i%len(sched)], now)
					out[w] = append(out[w], s)
					issued[w]++
					if s.outcome == outServed {
						served[w]++
					}
				}
			}()
		}
		wg.Wait()
		cur.work += time.Since(start).Seconds()
		for w := range issued {
			cur.served += served[w]
			next += issued[w]
		}
		cur.laps = append(cur.laps, ref.lap())
		if cur.work >= closedBlockLen.Seconds() {
			blocks = append(blocks, cur)
			cur = block{}
		}
	}
	if len(blocks) == 0 {
		blocks = append(blocks, cur) // a window shorter than one block
	}
	return out, blocks
}

// openLoop sends each arrival at its due time regardless of how the fleet
// is doing. Worker k owns arrivals k, k+openLoopWorkers, ...; it sleeps to
// each due time itself (no dispatcher), gives up on a hop after
// clientTimeout, and whatever it has not sent when the window plus the drain
// limit has passed is counted unsent, the request the deadline cut off in
// flight included.
func (rq *requester) openLoop(ctx context.Context, sched []arrival, window time.Duration) (samples [][]sample, unsent int) {
	k := openLoopWorkers
	samples = make([][]sample, k)
	unsentBy := make([]int, k)
	start := time.Now()
	deadline := start.Add(window + drainLimit)
	ctx, cancel := context.WithDeadline(ctx, deadline)
	defer cancel()
	var wg sync.WaitGroup
	for w := 0; w < k; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mine := make([]sample, 0, len(sched)/k+1)
			free := start // when this worker last became free to send
			for i := w; i < len(sched); i += k {
				due := start.Add(sched[i].due)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				now := time.Now()
				if ctx.Err() != nil {
					unsentBy[w] += (len(sched) - i + k - 1) / k
					break
				}
				s := rq.do(ctx, sched[i], due)
				if s.outcome == outAbandoned {
					unsentBy[w] += (len(sched) - i + k - 1) / k
					break
				}
				// The generator's own lateness: how long after it could
				// first have sent (due, or free again) it actually did.
				if free.After(due) {
					s.late = now.Sub(free)
				} else {
					s.late = now.Sub(due)
				}
				mine = append(mine, s)
				free = time.Now()
			}
			samples[w] = mine
		}()
	}
	wg.Wait()
	for _, u := range unsentBy {
		unsent += u
	}
	return samples, unsent
}

// warmUp issues count requests from every worker's share of sched so each
// worker holds a keep-alive connection to the nodes it will talk to.
func (rq *requester) warmUp(ctx context.Context, sched []arrival, count int) {
	k := workers()
	var wg sync.WaitGroup
	for w := 0; w < k; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < count; i += k {
				rq.do(ctx, sched[i%len(sched)], time.Now())
			}
		}()
	}
	wg.Wait()
}

// loadSummary condenses a run's samples.
type loadSummary struct {
	attempted, served, refused, failed, timedOut, slow, unsent int
	reusedHops, hops                                           int
	total, redirect, serve, late                               []float64 // sorted, seconds
}

// summarize condenses a run's samples.
func summarize(perWorker [][]sample, unsent int) loadSummary {
	sum := loadSummary{unsent: unsent}
	for _, ws := range perWorker {
		for _, s := range ws {
			sum.hops++
			switch s.outcome {
			case outServed:
				sum.served++
				sum.hops++
				sum.total = append(sum.total, s.total.Seconds())
				sum.redirect = append(sum.redirect, s.redirect.Seconds())
				sum.serve = append(sum.serve, s.serve.Seconds())
				if s.total > latencyLimit {
					sum.slow++
				}
			case outRefused:
				sum.refused++
			case outFailed:
				sum.failed++
			case outTimedOut:
				sum.timedOut++
			}
			sum.reusedHops += int(s.reused)
			sum.late = append(sum.late, s.late.Seconds())
		}
	}
	sum.attempted = sum.issued() + unsent
	for _, v := range [][]float64{sum.total, sum.redirect, sum.serve, sum.late} {
		sort.Float64s(v)
	}
	return sum
}

// issued is how many requests were sent and carried to an outcome.
func (s loadSummary) issued() int {
	return s.served + s.refused + s.failed + s.timedOut
}

// missShare is the share of attempted requests that were not served inside
// the latency limit: failed, refused, timed out, unsent or slow.
func (s loadSummary) missShare() float64 {
	return float64(s.attempted-s.served+s.slow) / float64(max(1, s.attempted))
}

// failShare is the share of attempted requests that got no good answer.
func (s loadSummary) failShare() float64 {
	return float64(s.failed+s.refused) / float64(max(1, s.attempted))
}
