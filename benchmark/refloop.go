package main

import (
	"math/rand"
	"time"
	"unsafe"

	"radar/internal/object"
	"radar/internal/topology"
	"radar/internal/workload"
)

// The reference loop is the benchmark's yardstick for the machine it runs
// on. The box this benchmark was recorded on is a two-core slice of a shared
// host whose other tenants load the shared cache and memory: a pure
// arithmetic loop keeps its time to within 5 to 10 %, but anything that touches
// memory — this loop, the simulator, the fleet — slows by 20 to 45 % for
// seconds to minutes at a time and speeds up again, all in step (the
// throughput of every workload falls as the loop's lap time rises, with a
// log-log slope of -0.9 to -1.2). No estimator inside one run repairs that
// and runs minutes apart differ by as much, so the throughput metric is
// reported in reference seconds: the wall time of the measured work divided
// by how much slower than nominal the reference loop ran in the same
// stretch of time, laps of the loop being interleaved with the work every
// lapEvery. On a machine at its nominal speed a reference second is a
// second.
//
// One lap is a hold model on a binary heap of refHeapLen pending times (the
// simulator's event queue) with one read per step from a table just past the
// second-level cache (the simulator's per-object state): fixed work, about a
// fortieth of a second.
type refLoop struct {
	heap  []uint64
	table []uint64
	x     uint64
}

const (
	refHeapLen  = 1 << 16 // 512 KiB
	refTableLen = 1 << 20 // 8 MiB
	refLapSteps = 200_000
	// refLapNominal is one lap's time, in seconds, on the recording box
	// when its neighbours are quiet.
	refLapNominal = 0.0250
	// lapEvery is how much measured work runs between two laps.
	lapEvery = 150 * time.Millisecond
)

func newRefLoop() *refLoop {
	r := &refLoop{heap: make([]uint64, refHeapLen), table: make([]uint64, refTableLen), x: 88172645463325252}
	for i := range r.heap {
		r.heap[i] = uint64(i) * 1000
	}
	for i := range r.table {
		r.table[i] = uint64(i)
	}
	r.lap() // the first lap faults the pages in
	return r
}

// bytes is the heap the loop holds: the benchmark's own, taken off
// live_heap_mb.
func (r *refLoop) bytes() uint64 {
	return uint64(cap(r.heap)+cap(r.table)) * uint64(unsafe.Sizeof(uint64(0)))
}

// lap runs the fixed work once and returns how long it took, in seconds.
func (r *refLoop) lap() float64 {
	start := time.Now()
	h, n, x := r.heap, len(r.heap), r.x
	mask := uint64(len(r.table) - 1)
	for step := 0; step < refLapSteps; step++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		// Replace the earliest pending time by a later one and sift it down.
		v := h[0] + x%100000 + r.table[(x>>20)&mask]&1
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && h[c+1] < h[c] {
				c++
			}
			if h[c] >= v {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = v
	}
	r.x = x
	return time.Since(start).Seconds()
}

// block is one stretch of measured work with the laps that were interleaved
// with it: a whole simulator run or replay, a couple of seconds of a closed
// loop, or (without laps) an open loop's whole phase.
type block struct {
	served int64
	work   float64   // seconds the work itself took, laps excluded
	laps   []float64 // seconds each
}

// perSecond is the block's throughput by the wall clock.
func (b block) perSecond() float64 { return float64(b.served) / b.work }

// level is how much slower than nominal the reference loop ran during the
// block: 1 on the recording box when quiet, and for a block without laps.
func (b block) level() float64 {
	if len(b.laps) == 0 {
		return 1
	}
	return mean(b.laps) / refLapNominal
}

// perRefSecond is the block's throughput in reference seconds.
func (b block) perRefSecond() float64 { return b.perSecond() * b.level() }

// reportBlocks sets the throughput metric from a run's blocks: the median
// block's. Each block is scaled by the laps inside it, so a slow minute and
// a fast one read the same; the median drops a block that a hiccup hit or
// (the first run of a process) that paid for growing the heap. The raw
// figures travel on the detail line.
func reportBlocks(blocks []block, rep *report) {
	var raw, lap []float64
	for _, b := range blocks {
		raw = append(raw, b.perSecond())
		if len(b.laps) > 0 {
			lap = append(lap, 1e3*mean(b.laps))
		}
	}
	n := len(blocks)
	rep.set("served_per_ref_s", perRefSecond(blocks), n)
	rep.set("raw.served_per_s", median(raw), n)
	if len(lap) > 0 {
		rep.set("raw.ref_lap_ms", median(lap), len(lap))
	}
}

// perRefSecond is the median block's throughput in reference seconds.
func perRefSecond(blocks []block) float64 {
	var v []float64
	for _, b := range blocks {
		v = append(v, b.perRefSecond())
	}
	return median(v)
}

// lapGenerator hands every draw through to the workload's generator and,
// whenever lapEvery of work has passed, times one lap of the reference loop
// before the next draw: the only place inside Simulation.Run (and the
// replay driver's Run) where the benchmark gets to run. The simulator's
// sharded engine draws in its serial dispatch phase, with the shard workers
// parked, so a lap there stops the whole run as well.
type lapGenerator struct {
	workload.Generator
	ref     *refLoop
	draws   int
	resumed time.Time // when work last (re)started
	laps    []float64
}

// lapCheckEvery is how many draws pass between two looks at the clock.
const lapCheckEvery = 1024

func (g *lapGenerator) Next(gw topology.NodeID, rng *rand.Rand) object.ID {
	if g.draws++; g.draws%lapCheckEvery == 0 && time.Since(g.resumed) >= lapEvery {
		g.laps = append(g.laps, g.ref.lap())
		g.resumed = time.Now()
	}
	return g.Generator.Next(gw, rng)
}

// begin starts a block: forgets the laps of the previous one.
func (g *lapGenerator) begin() {
	g.laps = nil
	g.resumed = time.Now()
}

// end closes a block that served the given requests in the given wall
// time. A run too short to have held a lap gets one now.
func (g *lapGenerator) end(served int64, wall time.Duration) block {
	inside := 0.0
	for _, l := range g.laps {
		inside += l
	}
	if len(g.laps) == 0 {
		g.laps = append(g.laps, g.ref.lap())
	}
	return block{served: served, work: wall.Seconds() - inside, laps: g.laps}
}
