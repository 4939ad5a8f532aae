package main

import (
	"runtime"
	"runtime/metrics"
	"time"
)

// Runtime quantities the meter reads, through runtime/metrics: unlike
// runtime.ReadMemStats, reading them does not stop the world.
const (
	rmAllocObjects = "/gc/heap/allocs:objects"
	rmTinyObjects  = "/gc/heap/tiny/allocs:objects"
	rmAllocBytes   = "/gc/heap/allocs:bytes"
	rmLiveHeap     = "/gc/heap/live:bytes"
	rmGCCPU        = "/cpu/classes/gc/total:cpu-seconds"
	rmTotalCPU     = "/cpu/classes/total:cpu-seconds"
)

// usage is what one measured phase cost the process.
type usage struct {
	Wall       time.Duration
	Allocs     uint64  // Mallocs delta (tiny allocations included)
	Bytes      uint64  // TotalAlloc delta
	LiveHeapMB float64 // heap still reachable when the phase ended
	GCCPUShare float64 // GC CPU seconds over total CPU seconds
}

// meter measures one phase: wall time, allocation deltas, GC CPU share, and
// the heap the phase leaves reachable.
type meter struct {
	start  time.Time
	before [5]metrics.Sample
}

func readCounters(s *[5]metrics.Sample) {
	s[0].Name, s[1].Name, s[2].Name, s[3].Name, s[4].Name = rmAllocObjects, rmTinyObjects, rmAllocBytes, rmGCCPU, rmTotalCPU
	metrics.Read(s[:])
}

func startMeter() *meter {
	m := &meter{}
	readCounters(&m.before)
	m.start = time.Now()
	return m
}

// Stop ends the phase and returns its cost. After the clock stops it forces
// a collection and reads the heap that survived: callers keep the phase's
// state (the simulation, the fleet) referenced until Stop returns, so the
// figure is the state the phase built. A peak sampled during the phase would
// be the size of the heap at whichever collection cycle came last before the
// sample, which on sim-bigrun-sharded moved by 16 % between identical runs;
// the survivors of a forced collection repeat to about 2 %. harnessBytes
// is what the benchmark itself still holds (the load generator's schedule
// and sample buffers); it is taken off, so the figure is the program's.
func (m *meter) Stop(harnessBytes uint64) usage {
	wall := time.Since(m.start)
	var after [5]metrics.Sample
	readCounters(&after)
	runtime.GC()
	live := []metrics.Sample{{Name: rmLiveHeap}}
	metrics.Read(live)
	u := usage{
		Wall: wall,
		Allocs: after[0].Value.Uint64() - m.before[0].Value.Uint64() +
			after[1].Value.Uint64() - m.before[1].Value.Uint64(),
		Bytes:      after[2].Value.Uint64() - m.before[2].Value.Uint64(),
		LiveHeapMB: float64(live[0].Value.Uint64()-min(harnessBytes, live[0].Value.Uint64())) / (1 << 20),
	}
	if cpu := after[4].Value.Float64() - m.before[4].Value.Float64(); cpu > 0 {
		u.GCCPUShare = (after[3].Value.Float64() - m.before[3].Value.Float64()) / cpu
	}
	return u
}
