package live

import (
	"bytes"
	"sync"
	"testing"
)

// TestCallDedupReplaysVerdict: a retry of an executed message is answered
// from the verdict cache without re-running fn.
func TestCallDedupReplaysVerdict(t *testing.T) {
	d := newCallDedup(4)
	runs := 0
	fn := func() []byte {
		runs++
		return []byte("verdict")
	}
	first := d.do(42, fn)
	second := d.do(42, fn)
	if runs != 1 {
		t.Fatalf("fn ran %d times, want 1", runs)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("replayed verdict %q differs from original %q", second, first)
	}
	if got := d.Executed(); got != 1 {
		t.Fatalf("Executed() = %d, want 1", got)
	}
	if d.do(43, fn); runs != 2 {
		t.Fatalf("distinct message did not execute (runs = %d)", runs)
	}
}

// TestCallDedupInflightDuplicates: duplicates arriving while the first
// copy executes wait for its verdict instead of executing again.
func TestCallDedupInflightDuplicates(t *testing.T) {
	d := newCallDedup(4)
	started := make(chan struct{})
	release := make(chan struct{})
	var mu sync.Mutex
	runs := 0
	fn := func() []byte {
		mu.Lock()
		runs++
		mu.Unlock()
		close(started)
		<-release
		return []byte("once")
	}

	var wg sync.WaitGroup
	results := make([][]byte, 8)
	wg.Add(1)
	go func() {
		defer wg.Done()
		results[0] = d.do(7, fn)
	}()
	<-started
	for i := 1; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = d.do(7, func() []byte {
				t.Error("duplicate executed fn")
				return nil
			})
		}(i)
	}
	close(release)
	wg.Wait()

	if runs != 1 {
		t.Fatalf("fn ran %d times, want 1", runs)
	}
	for i, r := range results {
		if !bytes.Equal(r, []byte("once")) {
			t.Fatalf("duplicate %d got %q, want %q", i, r, "once")
		}
	}
	if got := d.Executed(); got != 1 {
		t.Fatalf("Executed() = %d, want 1", got)
	}
}

// TestCallDedupConcurrencyLimit: distinct messages never execute more
// than limit at a time, and all of them complete.
func TestCallDedupConcurrencyLimit(t *testing.T) {
	const limit, msgs = 2, 16
	d := newCallDedup(limit)
	var mu sync.Mutex
	cur, peak := 0, 0
	var wg sync.WaitGroup
	for i := 0; i < msgs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d.do(uint64(i+1), func() []byte {
				mu.Lock()
				cur++
				if cur > peak {
					peak = cur
				}
				mu.Unlock()
				mu.Lock()
				cur--
				mu.Unlock()
				return nil
			})
		}(i)
	}
	wg.Wait()
	if peak > limit {
		t.Fatalf("observed %d concurrent executions, limit %d", peak, limit)
	}
	if got := d.Executed(); got != msgs {
		t.Fatalf("Executed() = %d, want %d", got, msgs)
	}
	if d.Peak() > limit {
		t.Fatalf("Peak() = %d, limit %d", d.Peak(), limit)
	}
}
