package object

import (
	"math"
	"testing"
)

// TestSetAgainstMap: Has follows Add and Remove, Remove reports whether it
// removed anything, the set grows only to the word of the highest ID added,
// and IDs outside it, negative ones included, are absent and never panic.
func TestSetAgainstMap(t *testing.T) {
	var s Set
	ref := make(map[ID]bool)
	for i, id := range []ID{63, 64, 0, 127, 128, 64, 200, 63, 128} {
		s.Add(id)
		ref[id] = true
		if i%3 == 2 {
			if !s.Remove(id) || s.Remove(id) {
				t.Fatalf("step %d: Remove(%d) did not report one removal", i, id)
			}
			delete(ref, id)
		}
		for j := ID(-2); j < 260; j++ {
			if s.Has(j) != ref[j] {
				t.Fatalf("step %d: Has(%d) = %v, want %v", i, j, s.Has(j), ref[j])
			}
		}
	}
	if len(s) != 4 {
		t.Fatalf("%d words, want 4 for IDs up to 200", len(s))
	}
	for _, id := range []ID{-1, math.MinInt, 256, math.MaxInt} {
		if s.Has(id) || s.Remove(id) {
			t.Fatalf("ID %d outside the set reads present", id)
		}
	}
}
