package simevent

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
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
	if e.Len() != 1 {
		t.Fatalf("pending = %d, want 1", e.Len())
	}
	e.Run(10 * time.Second)
	if len(ran) != 3 {
		t.Fatalf("resumed run executed %d total, want 3", len(ran))
	}
}

func TestStop(t *testing.T) {
	e := New()
	count := 0
	for i := 1; i <= 5; i++ {
		if err := e.Schedule(time.Duration(i)*time.Second, func(time.Duration) {
			count++
			if count == 2 {
				e.Stop()
			}
		}); err != nil {
			t.Fatalf("Schedule: %v", err)
		}
	}
	e.Run(forever)
	if count != 2 {
		t.Fatalf("count = %d, want 2 (stopped after second event)", count)
	}
	e.Run(forever)
	if count != 5 {
		t.Fatalf("count = %d after resume, want 5", count)
	}
}

func TestStepEmpty(t *testing.T) {
	e := New()
	if e.Step() {
		t.Fatal("Step on empty engine returned true")
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
		rng := rand.New(rand.NewSource(seed))
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
	rng := rand.New(rand.NewSource(1))
	e := New()
	nop := func(time.Duration) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Schedule(e.Now()+time.Duration(rng.Intn(1000))*time.Microsecond, nop); err != nil {
			b.Fatal(err)
		}
		if i%4 == 3 {
			e.Step()
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
	rng := rand.New(rand.NewSource(1))
	e := New()
	h := &benchHandler{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.ScheduleHandler(e.Now()+time.Duration(rng.Intn(1000))*time.Microsecond, h); err != nil {
			b.Fatal(err)
		}
		if i%4 == 3 {
			e.Step()
		}
	}
	e.Run(forever)
	if h.fired != b.N {
		b.Fatalf("fired %d of %d events", h.fired, b.N)
	}
}
