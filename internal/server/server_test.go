package server

import (
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"radar/internal/object"
	"radar/internal/workload"
)

func newServer(t *testing.T, capacity float64) *Server {
	t.Helper()
	s, err := New(Config{CapacityRPS: capacity, MeasurementInterval: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFCFSQueueing(t *testing.T) {
	s := newServer(t, 200) // 5ms service time
	d1 := s.Enqueue(0, 0)
	if d1 != 5*time.Millisecond {
		t.Fatalf("first completion = %v, want 5ms", d1)
	}
	d2 := s.Enqueue(time.Millisecond, 0) // arrives while busy
	if d2 != 10*time.Millisecond {
		t.Fatalf("second completion = %v, want 10ms (queued)", d2)
	}
	d3 := s.Enqueue(time.Second, 0) // arrives idle
	if d3 != time.Second+5*time.Millisecond {
		t.Fatalf("third completion = %v, want 1.005s", d3)
	}
}

func TestQueueDelayAndLength(t *testing.T) {
	s := newServer(t, 100) // 10ms
	s.Enqueue(0, 0)
	s.Enqueue(0, 0)
	if got := s.QueueDelay(0); got != 20*time.Millisecond {
		t.Fatalf("QueueDelay = %v, want 20ms", got)
	}
	if got := s.QueueLen(); got != 2 {
		t.Fatalf("QueueLen = %d, want 2", got)
	}
	s.OnServed(1)
	if got := s.QueueLen(); got != 1 {
		t.Fatalf("QueueLen after completion = %d, want 1", got)
	}
	if got := s.MaxQueueLen(); got != 2 {
		t.Fatalf("MaxQueueLen = %d, want 2", got)
	}
	if got := s.QueueDelay(time.Hour); got != 0 {
		t.Fatalf("idle QueueDelay = %v, want 0", got)
	}
}

func TestLoadMeasurement(t *testing.T) {
	s := newServer(t, 200)
	for i := 0; i < 100; i++ {
		s.OnServed(object.ID(i % 2))
	}
	if got := s.Load(); got != 0 {
		t.Fatalf("load before first interval close = %v, want 0", got)
	}
	start := s.CloseInterval(20 * time.Second)
	if start != 0 {
		t.Fatalf("closed interval start = %v, want 0", start)
	}
	if got := s.Load(); got != 5 { // 100 served / 20s
		t.Fatalf("measured load = %v, want 5 req/s", got)
	}
	// Per-object attribution: both objects served 50 times.
	if got := s.ObjectLoad(0); got != 2.5 {
		t.Fatalf("ObjectLoad(0) = %v, want 2.5", got)
	}
	if got := s.ObjectLoad(1); got != 2.5 {
		t.Fatalf("ObjectLoad(1) = %v, want 2.5", got)
	}
	if got := s.ObjectLoad(99); got != 0 {
		t.Fatalf("ObjectLoad(unknown) = %v, want 0", got)
	}
	// Next interval with no service: load drops to 0, old object loads gone.
	if start := s.CloseInterval(40 * time.Second); start != 20*time.Second {
		t.Fatalf("second closed start = %v, want 20s", start)
	}
	if got := s.Load(); got != 0 {
		t.Fatalf("empty interval load = %v, want 0", got)
	}
	if got := s.ObjectLoad(0); got != 0 {
		t.Fatalf("stale ObjectLoad = %v, want 0", got)
	}
}

func TestLoadReflectsCapacityUnderOverload(t *testing.T) {
	// Offered 400 req/s to a 200 req/s server: measured load must cap at
	// the service rate, not the offered rate (load is *serviced* requests).
	s := newServer(t, 200)
	now := time.Duration(0)
	served := 0
	for i := 0; i < 8000; i++ { // 400/s for 20s
		done := s.Enqueue(now, 0)
		if done <= 20*time.Second {
			s.OnServed(0)
			served++
		}
		now += 2500 * time.Microsecond
	}
	s.CloseInterval(20 * time.Second)
	if got := s.Load(); got < 195 || got > 200 {
		t.Fatalf("overloaded measured load = %v, want ~200 (capacity)", got)
	}
}

func TestCloseIntervalZeroLength(t *testing.T) {
	s := newServer(t, 200)
	s.OnServed(1)
	s.CloseInterval(0) // zero-length: keep previous measurement
	if got := s.Load(); got != 0 {
		t.Fatalf("load = %v, want unchanged 0", got)
	}
}

func TestTotalServed(t *testing.T) {
	s := newServer(t, 200)
	for i := 0; i < 7; i++ {
		s.OnServed(0)
	}
	s.CloseInterval(20 * time.Second)
	for i := 0; i < 3; i++ {
		s.OnServed(0)
	}
	if got := s.TotalServed(); got != 10 {
		t.Fatalf("TotalServed = %d, want 10 across intervals", got)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{CapacityRPS: 0, MeasurementInterval: time.Second}); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := New(Config{CapacityRPS: 1, MeasurementInterval: 0}); err == nil {
		t.Error("zero interval accepted")
	}
}

func TestDefaultConfigMatchesTable1(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.CapacityRPS != 200 {
		t.Errorf("capacity = %v, want 200 req/s", cfg.CapacityRPS)
	}
	if cfg.MeasurementInterval != 20*time.Second {
		t.Errorf("measurement interval = %v, want 20s", cfg.MeasurementInterval)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.serviceTime != 5*time.Millisecond {
		t.Errorf("service time = %v, want 5ms", s.serviceTime)
	}
}

// TestQueueInvariantsProperty drives random arrival sequences and checks
// FCFS invariants: completion times are strictly increasing by service
// time, and the queue never goes negative.
func TestQueueInvariantsProperty(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := workload.Stream(seed, 0)
		s := newServer(t, 100) // 10ms service
		now := time.Duration(0)
		var prevDone time.Duration
		var pending []time.Duration
		for i := 0; i < 300; i++ {
			now += time.Duration(rng.Intn(20)) * time.Millisecond
			// Complete any services that finished by now.
			for len(pending) > 0 && pending[0] <= now {
				s.OnServed(object.ID(rng.Intn(5)))
				pending = pending[1:]
			}
			done := s.Enqueue(now, 0)
			if done < now+s.serviceTime {
				t.Fatalf("seed %d: completion %v before arrival+service", seed, done)
			}
			if done < prevDone+s.serviceTime {
				t.Fatalf("seed %d: FCFS violated: %v after %v", seed, done, prevDone)
			}
			prevDone = done
			pending = append(pending, done)
			if s.QueueLen() < 0 {
				t.Fatalf("seed %d: negative queue", seed)
			}
		}
	}
}

// TestLoadAttributionSumsToTotal: per-object loads sum to the total
// measured load.
func TestLoadAttributionSumsToTotal(t *testing.T) {
	s := newServer(t, 200)
	rng := workload.Stream(3, 0)
	for i := 0; i < 500; i++ {
		s.OnServed(object.ID(rng.Intn(17)))
	}
	s.CloseInterval(20 * time.Second)
	sum := 0.0
	for id := 0; id < 17; id++ {
		sum += s.ObjectLoad(object.ID(id))
	}
	if diff := sum - s.Load(); diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("object loads sum %v != total %v", sum, s.Load())
	}
}

// TestEnqueueStorageCost: a storage cost extends the request's occupancy
// of the server, backing up the FCFS queue like slow service.
func TestEnqueueStorageCost(t *testing.T) {
	s := newServer(t, 200) // 5ms service time
	d1 := s.Enqueue(0, 5*time.Millisecond)
	if d1 != 10*time.Millisecond {
		t.Fatalf("first completion = %v, want 10ms (5ms service + 5ms storage)", d1)
	}
	d2 := s.Enqueue(0, 0)
	if d2 != 15*time.Millisecond {
		t.Fatalf("second completion = %v, want 15ms (queued behind storage)", d2)
	}
}

// TestServedLogEquivalence: a server that charges its per-object counts
// from the log and one that settles after every request (the unbatched
// accounting) measure the same thing — loads, per-object loads and the
// closed interval's table, slot for slot — over intervals whose request
// counts sit below, on and well beyond the log's capacity.
func TestServedLogEquivalence(t *testing.T) {
	rng := workload.Stream(11, 0)
	batched, eager := newServer(t, 200), newServer(t, 200)
	const ids = 40
	now := time.Duration(0)
	for i, n := range []int{0, 1, servedLogCap - 1, servedLogCap, servedLogCap + 1, 5*servedLogCap + 7, 3} {
		for j := 0; j < n; j++ {
			id := object.ID(rng.Intn(ids) * (1 + i%2)) // odd intervals reach IDs the even ones never touch
			batched.Enqueue(now, 0)
			eager.Enqueue(now, 0)
			batched.OnServed(id)
			eager.OnServed(id)
			eager.settle()
			if batched.QueueLen() != eager.QueueLen() || batched.TotalServed() != eager.TotalServed() {
				t.Fatalf("interval %d request %d: queue %d/%d, served %d/%d: the scalars must not wait for settle",
					i, j, batched.QueueLen(), eager.QueueLen(), batched.TotalServed(), eager.TotalServed())
			}
		}
		if n > 0 && len(batched.servedLog) == 0 {
			t.Fatalf("interval %d: the log is empty before the interval closes", i)
		}
		now += 20 * time.Second
		if b, e := batched.CloseInterval(now), eager.CloseInterval(now); b != e {
			t.Fatalf("interval %d: closed start %v, eager %v", i, b, e)
		}
		if batched.Load() != eager.Load() {
			t.Fatalf("interval %d: load %v, eager %v", i, batched.Load(), eager.Load())
		}
		for id := object.ID(0); id < 2*ids; id++ {
			if b, e := batched.ObjectLoad(id), eager.ObjectLoad(id); b != e {
				t.Fatalf("interval %d: object %d load %v, eager %v", i, id, b, e)
			}
		}
		if !slices.Equal(batched.closed.slots, eager.closed.slots) {
			t.Fatalf("interval %d: closed table %v, eager %v", i, batched.closed.slots, eager.closed.slots)
		}
		if len(batched.servedLog)+batched.open.n != 0 {
			t.Fatalf("interval %d: %d logged and %d counted objects survive the close", i, len(batched.servedLog), batched.open.n)
		}
	}
}

// TestServerOutsideIDs: an ID the server never served reads 0 and never
// panics, whether it is negative, unseen, far past every served ID or past
// what the log's uint32 holds.
func TestServerOutsideIDs(t *testing.T) {
	s := newServer(t, 200)
	for _, id := range []object.ID{-1, math.MinInt, 5, 1 << 20, math.MaxUint32 + 5, math.MaxInt} {
		if got := s.ObjectLoad(id); got != 0 {
			t.Errorf("before any close: ObjectLoad(%d) = %v, want 0", id, got)
		}
	}
	s.OnServed(5)
	s.CloseInterval(20 * time.Second)
	if got := s.ObjectLoad(5); got != 0.05 {
		t.Fatalf("ObjectLoad(5) = %v, want 0.05", got)
	}
	for _, id := range []object.ID{-1, -64, math.MinInt, 4, 6, 64, 1 << 20, 1<<32 + 5, 1 << 40, math.MaxInt} {
		if got := s.ObjectLoad(id); got != 0 {
			t.Errorf("ObjectLoad(%d) = %v, want 0", id, got)
		}
	}
}

// TestServerMemoryFollowsServedObjects: a server that serves object 0 and
// object 1<<30 over three intervals allocates for the two objects it
// served, not for the IDs between them.
func TestServerMemoryFollowsServedObjects(t *testing.T) {
	s := newServer(t, 200)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := 1; k <= 3; k++ {
		for i := 0; i < 3*servedLogCap; i++ {
			s.OnServed(object.ID(i%2) << 30)
		}
		s.CloseInterval(time.Duration(k) * 20 * time.Second)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 4<<10 {
		t.Fatalf("three intervals over IDs 0 and 1<<30 allocated %d bytes, want under 4 KB", got)
	}
	if got, want := s.ObjectLoad(1<<30), float64(3*servedLogCap/2)/20; got != want {
		t.Fatalf("ObjectLoad(1<<30) = %v, want %v", got, want)
	}
}

// FuzzServerCounts holds the per-object loads against a map oracle. Each
// pair of bytes serves one of a pool of IDs — widely spaced ones, and a run
// that all share a first probe in the 16-slot table, so tables grow and
// probe chains form — or closes an interval of 0 to 255 seconds. After
// every close, ObjectLoad of each ID the stream named must be the oracle's
// count over the interval's seconds, bit for bit.
func FuzzServerCounts(f *testing.F) {
	pool := []object.ID{0, 1, 1 << 30, math.MaxUint32, 1<<31 + 7}
	probe := countTable{slots: make([]countSlot, 16)}
	home := probe.slot(0)
	for id := uint32(1); len(pool) < 24; id += 7919 {
		if probe.slot(id) == home {
			pool = append(pool, object.ID(id))
		}
	}
	f.Add([]byte{1, 5, 1, 6, 1, 5, 0, 20, 1, 7, 0, 0, 1, 8, 0, 3})
	f.Add([]byte{1, 5, 1, 6, 1, 7, 1, 8, 1, 9, 1, 10, 1, 11, 1, 12, 1, 13, 1, 14, 1, 15, 1, 16, 1, 17, 1, 2, 0, 20})
	f.Fuzz(func(t *testing.T, prog []byte) {
		s := newServer(t, 200)
		open := make(map[object.ID]int32)
		now, start := time.Duration(0), time.Duration(0)
		for step := 0; step+1 < len(prog); step += 2 {
			if prog[step]%4 != 0 {
				id := pool[int(prog[step+1])%len(pool)]
				s.OnServed(id)
				open[id]++
				continue
			}
			now += time.Duration(prog[step+1]) * time.Second
			s.CloseInterval(now)
			secs := (now - start).Seconds()
			if secs <= 0 {
				continue // a zero-length close keeps the interval open
			}
			for _, id := range pool {
				want := 0.0
				if n := open[id]; n != 0 {
					want = float64(n) / secs
				}
				if got := s.ObjectLoad(id); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("step %d: ObjectLoad(%d) = %v, want %v", step, id, got, want)
				}
			}
			clear(open)
			start = now
		}
	})
}
