package consistency

import (
	"fmt"
	"hash/fnv"
	"slices"
	"testing"

	"radar/internal/object"
)

var u = object.Universe{Count: 2000, SizeBytes: 12 << 10}

func TestCategoryMix(t *testing.T) {
	cats := Assign(u, DefaultMix(), 42)
	if len(cats) != u.Count {
		t.Fatalf("categorized %d objects, want %d", len(cats), u.Count)
	}
	counts := make(map[Category]int)
	for _, c := range cats {
		counts[c]++
	}
	frac := func(c Category) float64 { return float64(counts[c]) / float64(u.Count) }
	if f := frac(Static); f < 0.80 || f > 0.90 {
		t.Errorf("static fraction = %.3f, want ~0.85", f)
	}
	if f := frac(Commuting); f < 0.06 || f > 0.14 {
		t.Errorf("commuting fraction = %.3f, want ~0.10", f)
	}
	if f := frac(NonCommuting); f < 0.02 || f > 0.08 {
		t.Errorf("non-commuting fraction = %.3f, want ~0.05", f)
	}
}

func TestDeterministicAssignment(t *testing.T) {
	a, b := Assign(u, DefaultMix(), 7), Assign(u, DefaultMix(), 7)
	if !slices.Equal(a, b) {
		t.Fatal("categories differ across same-seed assignments")
	}
	if slices.Equal(a, Assign(u, DefaultMix(), 8)) {
		t.Error("seeds 7 and 8 drew the same table")
	}
}

// TestAssignMatchesParent pins the category table to the one the stateful
// manager this package used to hold built (consistency.New at the parent
// commit, Table 1 universe, seed 1): FNV-1a over one byte per object.
func TestAssignMatchesParent(t *testing.T) {
	cats := Assign(object.Universe{Count: 10000, SizeBytes: 12 << 10}, DefaultMix(), 1)
	h := fnv.New64a()
	var counts [4]int
	for _, c := range cats {
		h.Write([]byte{byte(c)})
		counts[c]++
	}
	if got, want := fmt.Sprintf("%016x %v", h.Sum64(), counts), "6aac177e291989a8 [0 8568 957 475]"; got != want {
		t.Errorf("category table = %s, want %s", got, want)
	}
}

func TestCanReplicateGate(t *testing.T) {
	cats := Assign(u, DefaultMix(), 42)
	static := object.ID(slices.Index(cats, Static))
	noncomm := object.ID(slices.Index(cats, NonCommuting))
	if static < 0 || noncomm < 0 {
		t.Fatal("fixture lacks both categories")
	}
	gate := Gate(u, DefaultMix(), 42)
	if !gate(static, 50) {
		t.Error("static object replication blocked")
	}
	if gate(noncomm, 1) {
		t.Error("category-3 object replicated past cap 1 (migrate-only)")
	}
	if !gate(noncomm, 0) {
		t.Error("category-3 object refused its only copy")
	}
	if Gate(u, Mix{}, 42) != nil {
		t.Error("the all-static zero mix built a gate")
	}
}

func TestValidation(t *testing.T) {
	if err := (Mix{Static: 0.5, Commuting: 0.2, NonCommuting: 0.2}).Validate(); err == nil {
		t.Error("non-normalized mix accepted")
	}
	if err := (Mix{Static: -0.5, Commuting: 1.3, NonCommuting: 0.2}).Validate(); err == nil {
		t.Error("negative fraction accepted")
	}
	if err := DefaultMix().Validate(); err != nil {
		t.Errorf("default mix invalid: %v", err)
	}
	if err := (Mix{}).Validate(); err != nil {
		t.Errorf("zero (all-static) mix invalid: %v", err)
	}
}
