package simevent

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"radar/internal/workload"
)

// forever is a horizon no test event lies beyond: Run(forever) drains the
// queue.
const forever = time.Duration(math.MaxInt64)

func TestZeroValueReady(t *testing.T) {
	var e Engine
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
	ran := false
	if err := e.Schedule(5*time.Millisecond, func(time.Duration) { ran = true }); err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	e.Run(forever)
	if !ran {
		t.Fatal("event did not run")
	}
	if e.Now() != 5*time.Millisecond {
		t.Fatalf("Now() = %v, want 5ms", e.Now())
	}
}

func TestTimestampOrder(t *testing.T) {
	e := New()
	var got []time.Duration
	times := []time.Duration{30, 10, 20, 5, 25}
	for _, at := range times {
		at := at
		if err := e.Schedule(at, func(now time.Duration) { got = append(got, now) }); err != nil {
			t.Fatalf("Schedule(%v): %v", at, err)
		}
	}
	e.Run(forever)
	want := append([]time.Duration(nil), times...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d ran at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestFIFOTieBreak(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		if err := e.Schedule(time.Second, func(time.Duration) { order = append(order, i) }); err != nil {
			t.Fatalf("Schedule: %v", err)
		}
	}
	e.Run(forever)
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (FIFO among ties)", i, v, i)
		}
	}
}

func TestSchedulePastRejected(t *testing.T) {
	e := New()
	if err := e.Schedule(time.Second, func(time.Duration) {}); err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	e.Run(forever)
	err := e.Schedule(500*time.Millisecond, func(time.Duration) {})
	if !errors.Is(err, ErrSchedulePast) {
		t.Fatalf("err = %v, want ErrSchedulePast", err)
	}
	if err := e.Schedule(e.Now()-time.Millisecond, func(time.Duration) {}); !errors.Is(err, ErrSchedulePast) {
		t.Fatalf("Schedule(now-1ms) err = %v, want ErrSchedulePast", err)
	}
}

func TestScheduleAtNowRunsAfterPending(t *testing.T) {
	e := New()
	var order []string
	if err := e.Schedule(time.Second, func(time.Duration) {
		order = append(order, "first")
		if err := e.Schedule(e.Now(), func(time.Duration) { order = append(order, "rescheduled") }); err != nil {
			t.Errorf("Schedule(now): %v", err)
		}
	}); err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if err := e.Schedule(time.Second, func(time.Duration) { order = append(order, "second") }); err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	e.Run(forever)
	want := []string{"first", "second", "rescheduled"}
	for i, w := range want {
		if i >= len(order) || order[i] != w {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestRunHorizon(t *testing.T) {
	e := New()
	var ran []time.Duration
	for _, at := range []time.Duration{time.Second, 2 * time.Second, 3 * time.Second} {
		if err := e.Schedule(at, func(now time.Duration) { ran = append(ran, now) }); err != nil {
			t.Fatalf("Schedule: %v", err)
		}
	}
	e.Run(2 * time.Second)
	if len(ran) != 2 {
		t.Fatalf("ran %d events within horizon, want 2", len(ran))
	}
	if at, ok := e.PeekTime(); !ok || at != 3*time.Second {
		t.Fatalf("PeekTime() = %v, %v; want the 3s event pending", at, ok)
	}
	e.Run(10 * time.Second)
	if len(ran) != 3 {
		t.Fatalf("resumed run executed %d total, want 3", len(ran))
	}
}

func TestStepEmpty(t *testing.T) {
	e := New()
	if e.step(math.MaxInt64) {
		t.Fatal("step on empty engine returned true")
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	e := New()
	depth := 0
	var fire func(now time.Duration)
	fire = func(now time.Duration) {
		depth++
		if depth < 100 {
			if err := e.Schedule(e.Now()+time.Millisecond, fire); err != nil {
				t.Errorf("Schedule: %v", err)
			}
		}
	}
	if err := e.Schedule(0, fire); err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	e.Run(forever)
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if e.Now() != 99*time.Millisecond {
		t.Fatalf("Now() = %v, want 99ms", e.Now())
	}
}

// TestOrderProperty checks with random schedules that execution order is a
// stable sort of (time, insertion order).
func TestOrderProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := workload.Stream(seed, 0)
		e := New()
		type rec struct {
			at  time.Duration
			idx int
		}
		var want []rec
		var got []rec
		total := int(n%64) + 1
		for i := 0; i < total; i++ {
			at := time.Duration(rng.Intn(10)) * time.Millisecond
			want = append(want, rec{at, i})
			i := i
			if err := e.Schedule(at, func(now time.Duration) { got = append(got, rec{now, i}) }); err != nil {
				return false
			}
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
		e.Run(forever)
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	rng := workload.Stream(1, 0)
	e := New()
	nop := func(time.Duration) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Schedule(e.Now()+time.Duration(rng.Intn(1000))*time.Microsecond, nop); err != nil {
			b.Fatal(err)
		}
		if i%4 == 3 {
			e.step(math.MaxInt64)
		}
	}
	e.Run(forever)
}

// benchHandler is a no-op pooled handler for the allocation benchmark.
type benchHandler struct{ fired int }

func (h *benchHandler) Fire(time.Duration) { h.fired++ }

// BenchmarkScheduleHandlerAndRun measures the pooled-handler hot path:
// unlike closure scheduling, it must not allocate per event.
func BenchmarkScheduleHandlerAndRun(b *testing.B) {
	rng := workload.Stream(1, 0)
	e := New()
	h := &benchHandler{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.ScheduleHandler(e.Now()+time.Duration(rng.Intn(1000))*time.Microsecond, h); err != nil {
			b.Fatal(err)
		}
		if i%4 == 3 {
			e.step(math.MaxInt64)
		}
	}
	e.Run(forever)
	if h.fired != b.N {
		b.Fatalf("fired %d of %d events", h.fired, b.N)
	}
}

// streamHandler is one periodic stream: each firing reschedules it one
// spacing ahead, the way a simulated gateway does.
type streamHandler struct {
	e       *Engine
	spacing time.Duration
	sorted  bool
}

func (h *streamHandler) Fire(now time.Duration) { h.schedule(now + h.spacing) }

func (h *streamHandler) schedule(at time.Duration) {
	if h.sorted {
		_ = h.e.ScheduleSorted(at, h)
		return
	}
	_ = h.e.ScheduleHandler(at, h)
}

// BenchmarkScheduleSorted measures the gateway pattern — 53 phase-offset
// periodic streams, each firing one pop and one reschedule — in the sorted
// run and, for comparison, in the heap.
func BenchmarkScheduleSorted(b *testing.B) {
	const streams = 53
	spacing := 25 * time.Millisecond
	for _, sorted := range []bool{true, false} {
		name := "heap"
		if sorted {
			name = "sorted"
		}
		b.Run(name, func(b *testing.B) {
			e := New()
			for i := 0; i < streams; i++ {
				h := &streamHandler{e: e, spacing: spacing, sorted: sorted}
				h.schedule(spacing * time.Duration(i) / streams)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.step(math.MaxInt64)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
		})
	}
}

// program is one seeded random run of the engine that mixes every way to
// schedule. Replayed with sorted false, every ScheduleSorted becomes a
// ScheduleHandler: that heap-only replay is the ordering oracle.
type program struct {
	e      *Engine
	rng    *rand.Rand
	sorted bool
	budget int     // events still to be created
	log    []int64 // fired (id, time) pairs and observed peek/clock values
	// wrappedGrows counts sorted inserts that found the ring full and
	// wrapped, so that growing it had to unwrap it.
	wrappedGrows int
}

// progEvent is one event of a program; firing logs it and spawns up to two
// more.
type progEvent struct {
	p  *program
	id int64
}

func (ev *progEvent) Fire(now time.Duration) {
	ev.p.log = append(ev.p.log, ev.id, int64(now))
	ev.p.spawn(now, ev.p.rng.Intn(3))
}

// spawn schedules n events at or after now, on a millisecond grid so that
// equal instants are common. Sorted events land either anywhere in the
// next 8 ms (usually out of order) or past it (usually in order).
// Reserved events take their seq first and enter the heap after the
// others of this call, as the per-server FIFO heads do.
func (p *program) spawn(now time.Duration, n int) {
	type reserved struct {
		at  time.Duration
		seq uint64
		ev  *progEvent
	}
	var held []reserved
	for ; n > 0 && p.budget > 0; n-- {
		p.budget--
		ev := &progEvent{p: p, id: int64(p.budget)}
		at := now + time.Duration(p.rng.Intn(8))*time.Millisecond
		var err error
		switch p.rng.Intn(5) {
		case 0:
			err = p.e.Schedule(at, ev.Fire)
		case 1:
			err = p.e.ScheduleHandler(at, ev)
		case 2:
			held = append(held, reserved{at, p.e.ReserveSeq(), ev})
		default:
			if p.rng.Intn(2) == 0 {
				at += 8 * time.Millisecond
			}
			if !p.sorted {
				err = p.e.ScheduleHandler(at, ev)
				break
			}
			if p.e.ringLen == len(p.e.ring) && p.e.ringHead != 0 {
				p.wrappedGrows++
			}
			err = p.e.ScheduleSorted(at, ev)
		}
		if err != nil {
			panic(err)
		}
	}
	for _, r := range held {
		if err := p.e.ScheduleHandlerReserved(r.at, r.seq, r.ev); err != nil {
			panic(err)
		}
	}
}

// runProgram runs the program of seed to exhaustion, alternating step with
// Run to random horizons and logging PeekTime before and the clock after
// each.
func runProgram(seed int64, sorted bool) *program {
	rng := workload.Stream(seed, 0)
	p := &program{e: New(), rng: rng, sorted: sorted, budget: 200 + rng.Intn(800)}
	p.spawn(0, 40+rng.Intn(100))
	for {
		at, ok := p.e.PeekTime()
		if !ok {
			return p
		}
		p.log = append(p.log, -1, int64(at))
		if p.rng.Intn(3) == 0 {
			p.e.step(math.MaxInt64)
		} else {
			p.e.Run(p.e.Now() + time.Duration(p.rng.Intn(4))*time.Millisecond)
		}
		p.log = append(p.log, -2, int64(p.e.Now()))
	}
}

// sameOrder reports where the program of seed first diverges from its
// heap-only replay, or -1.
func sameOrder(seed int64) (diverge int, sorted *program) {
	sorted, oracle := runProgram(seed, true), runProgram(seed, false)
	for i := range sorted.log {
		if i >= len(oracle.log) || sorted.log[i] != oracle.log[i] {
			return i, sorted
		}
	}
	if len(oracle.log) != len(sorted.log) {
		return len(sorted.log), sorted
	}
	return -1, sorted
}

// TestSortedRunMatchesHeap checks that the sorted run changes nothing
// about the order events fire in, nor where PeekTime and Run(horizon)
// stop: seeded programs mixing every scheduling call fire exactly as
// their heap-only replays do.
func TestSortedRunMatchesHeap(t *testing.T) {
	wrapped := 0
	for seed := int64(1); seed <= 40; seed++ {
		i, p := sameOrder(seed)
		if i >= 0 {
			t.Fatalf("seed %d: sorted run diverges from the heap at log entry %d", seed, i)
		}
		wrapped += p.wrappedGrows
	}
	if wrapped == 0 {
		t.Fatal("no program grew the ring while it was wrapped")
	}
}

// FuzzSortedRun widens TestSortedRunMatchesHeap to any seed.
func FuzzSortedRun(f *testing.F) {
	for seed := int64(1); seed <= 40; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		if i, _ := sameOrder(seed); i >= 0 {
			t.Fatalf("seed %d: sorted run diverges from the heap at log entry %d", seed, i)
		}
	})
}
