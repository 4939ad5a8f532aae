package simevent

import (
	"testing"
	"time"
)

type recHandler struct {
	log *[]int
	id  int
}

func (h *recHandler) Fire(time.Duration) { *h.log = append(*h.log, h.id) }

func ms(d int) time.Duration { return time.Duration(d) * time.Millisecond }

// TestWheelOrdersByTimeThenStamp checks pops follow (at, Stamp) order
// with the full stamp tie-break chain: SchedAt, then ParentAt, then
// Plane (deliveries before locals), then Seq.
func TestWheelOrdersByTimeThenStamp(t *testing.T) {
	var log []int
	w := NewWheel()
	push := func(id int, at time.Duration, st Stamp) {
		w.Push(at, st, &recHandler{&log, id})
	}
	// Deliberately inserted out of order.
	push(5, ms(10), Stamp{SchedAt: ms(5), Plane: PlaneLocal, Seq: 1})
	push(1, ms(5), Stamp{SchedAt: ms(1), Seq: 9})
	push(4, ms(10), Stamp{SchedAt: ms(5), Plane: PlaneDelivery, Seq: 7})
	push(2, ms(10), Stamp{SchedAt: ms(2), ParentAt: ms(2), Plane: PlaneLocal, Seq: 3})
	push(3, ms(10), Stamp{SchedAt: ms(5), ParentAt: 0, Plane: PlaneDelivery, Seq: 2})
	push(6, ms(10), Stamp{SchedAt: ms(5), Plane: PlaneLocal, Seq: 2})
	if n := w.RunBefore(ms(11)); n != 6 {
		t.Fatalf("ran %d events, want 6", n)
	}
	want := []int{1, 2, 3, 4, 5, 6}
	for i, id := range want {
		if log[i] != id {
			t.Fatalf("pop order %v, want %v", log, want)
		}
	}
}

// TestWheelRunBeforeIsExclusive checks the window boundary: events at
// exactly the limit stay pending, and the committed horizon advances to
// the limit even when the wheel drains early.
func TestWheelRunBeforeIsExclusive(t *testing.T) {
	var log []int
	w := NewWheel()
	w.Push(ms(10), Stamp{Seq: 1}, &recHandler{&log, 1})
	w.Push(ms(20), Stamp{Seq: 2}, &recHandler{&log, 2})
	if n := w.RunBefore(ms(20)); n != 1 {
		t.Fatalf("ran %d events, want 1 (event at limit must wait)", n)
	}
	if w.Committed() != ms(20) {
		t.Fatalf("committed %v, want %v", w.Committed(), ms(20))
	}
	if at, ok := w.PeekTime(); !ok || at != ms(20) {
		t.Fatalf("PeekTime() = %v, %v; want the 20ms event pending", at, ok)
	}
	if n := w.RunBefore(ms(21)); n != 1 {
		t.Fatalf("second window ran %d events, want 1", n)
	}
	if len(log) != 2 || log[0] != 1 || log[1] != 2 {
		t.Fatalf("log %v", log)
	}
}

// TestWheelPushIntoCommittedPastPanics is the runtime lookahead
// assertion: a delivery timestamped inside the committed window means
// the conservative bound was violated, and must fail loudly rather than
// silently reorder history.
func TestWheelPushIntoCommittedPastPanics(t *testing.T) {
	var log []int
	w := NewWheel()
	w.RunBefore(ms(50))
	defer func() {
		if recover() == nil {
			t.Fatal("push at t=10ms into committed window [0,50ms) did not panic")
		}
	}()
	w.Push(ms(10), Stamp{}, &recHandler{&log, 1})
}

// TestWheelExecutingAndLocalSeq checks the reservation APIs used by the
// FCFS completion path: Executing exposes the current event's key while
// it fires, and NextLocalSeq increments monotonically.
func TestWheelExecutingAndLocalSeq(t *testing.T) {
	w := NewWheel()
	st := Stamp{SchedAt: ms(3), ParentAt: ms(1), Plane: PlaneDelivery, Seq: 42}
	var gotAt time.Duration
	var gotSt Stamp
	var s1, s2 uint64
	w.Push(ms(7), st, handlerFunc(func(now time.Duration) {
		gotAt, gotSt = w.Executing()
		s1, s2 = w.NextLocalSeq(), w.NextLocalSeq()
		if w.Now() != now {
			t.Errorf("Now()=%v, event fired at %v", w.Now(), now)
		}
	}))
	w.RunBefore(ms(8))
	if gotAt != ms(7) || gotSt != st {
		t.Errorf("Executing() = (%v, %+v), want (%v, %+v)", gotAt, gotSt, ms(7), st)
	}
	if s2 != s1+1 {
		t.Errorf("NextLocalSeq not monotonic: %d then %d", s1, s2)
	}
}

type handlerFunc func(time.Duration)

func (f handlerFunc) Fire(now time.Duration) { f(now) }

// TestStampLess pins the comparison chain.
func TestStampLess(t *testing.T) {
	base := Stamp{SchedAt: ms(5), ParentAt: ms(2), Plane: PlaneLocal, Seq: 10}
	cases := []struct {
		a, b Stamp
		want bool
	}{
		{Stamp{SchedAt: ms(4), ParentAt: ms(9), Plane: PlaneLocal, Seq: 99}, base, true},
		{Stamp{SchedAt: ms(5), ParentAt: ms(1), Plane: PlaneLocal, Seq: 99}, base, true},
		{Stamp{SchedAt: ms(5), ParentAt: ms(2), Plane: PlaneDelivery, Seq: 99}, base, true},
		{Stamp{SchedAt: ms(5), ParentAt: ms(2), Plane: PlaneLocal, Seq: 9}, base, true},
		{base, base, false},
		{base, Stamp{SchedAt: ms(4), ParentAt: ms(9), Plane: PlaneLocal, Seq: 99}, false},
	}
	for i, c := range cases {
		if got := c.a.Less(c.b); got != c.want {
			t.Errorf("case %d: Less(%+v, %+v) = %v, want %v", i, c.a, c.b, got, c.want)
		}
	}
}
