package consistency

import (
	"testing"

	"radar/internal/object"
	"radar/internal/topology"
)

var u = object.Universe{Count: 2000, SizeBytes: 12 << 10}

func newManager(t *testing.T) *Manager {
	t.Helper()
	m, err := New(u, DefaultMix(), 53, 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCategoryMix(t *testing.T) {
	m := newManager(t)
	counts := make(map[Category]int)
	for _, c := range m.categories {
		counts[c]++
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != u.Count {
		t.Fatalf("categorized %d objects, want %d", total, u.Count)
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
	a, err := New(u, DefaultMix(), 53, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(u, DefaultMix(), 53, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < u.Count; i++ {
		if a.Category(object.ID(i)) != b.Category(object.ID(i)) {
			t.Fatalf("object %d category differs across same-seed constructions", i)
		}
	}
}

func TestCanReplicateGate(t *testing.T) {
	m := newManager(t)
	var static, noncomm object.ID = -1, -1
	for i := 0; i < u.Count; i++ {
		switch m.Category(object.ID(i)) {
		case Static:
			if static < 0 {
				static = object.ID(i)
			}
		case NonCommuting:
			if noncomm < 0 {
				noncomm = object.ID(i)
			}
		}
	}
	if static < 0 || noncomm < 0 {
		t.Fatal("fixture lacks both categories")
	}
	if !m.CanReplicate(static, 50) {
		t.Error("static object replication blocked")
	}
	if m.CanReplicate(noncomm, 1) {
		t.Error("category-3 object replicated past cap 1 (migrate-only)")
	}
	// With a cap of 3, up to 2 existing replicas may grow to 3.
	m3, err := New(u, DefaultMix(), 53, 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !m3.CanReplicate(noncomm, 2) {
		t.Error("category-3 replication below cap blocked")
	}
	if m3.CanReplicate(noncomm, 3) {
		t.Error("category-3 replication at cap allowed")
	}
}

func TestPrimaryTracking(t *testing.T) {
	m := newManager(t)
	id := object.ID(57)
	home := u.HomeNode(id, 53)
	if got := m.Primary(id); got != home {
		t.Fatalf("initial primary = %v, want home %v", got, home)
	}
	m.OnMigrate(id, home, 7)
	if got := m.Primary(id); got != 7 {
		t.Fatalf("primary after migration = %v, want 7", got)
	}
	// Migration of a non-primary replica must not move the primary.
	m.OnMigrate(id, 30, 31)
	if got := m.Primary(id); got != 7 {
		t.Fatalf("primary moved with non-primary migration: %v", got)
	}
	m.OnDrop(id, 7, 12)
	if got := m.Primary(id); got != 12 {
		t.Fatalf("primary after drop = %v, want survivor 12", got)
	}
	m.OnDrop(id, 40, 41) // non-primary drop: no effect
	if got := m.Primary(id); got != 12 {
		t.Fatalf("primary moved on unrelated drop: %v", got)
	}
}

func TestUpdateFlush(t *testing.T) {
	m := newManager(t)
	id := object.ID(3)
	primary := m.Primary(id)
	if got := m.Flush(id, []topology.NodeID{primary, 9}); got != nil {
		t.Fatalf("flush with no updates = %v, want nil", got)
	}
	m.Update(id)
	m.Update(id)
	if got := m.Pending(id); got != 2 {
		t.Fatalf("pending = %d, want 2", got)
	}
	props := m.Flush(id, []topology.NodeID{primary, 9, 11})
	if len(props) != 2 {
		t.Fatalf("propagations = %d, want 2 (primary skipped)", len(props))
	}
	for _, p := range props {
		if p.From != primary || p.Updates != 2 {
			t.Errorf("propagation %+v, want from primary with 2 updates", p)
		}
		if p.To == primary {
			t.Error("propagation targeted the primary")
		}
	}
	if got := m.Pending(id); got != 0 {
		t.Fatalf("pending after flush = %d, want 0", got)
	}
}

func TestValidation(t *testing.T) {
	if _, err := New(object.Universe{}, DefaultMix(), 53, 1, 1); err == nil {
		t.Error("empty universe accepted")
	}
	if _, err := New(u, Mix{Static: 0.5, Commuting: 0.2, NonCommuting: 0.2}, 53, 1, 1); err == nil {
		t.Error("non-normalized mix accepted")
	}
	if _, err := New(u, Mix{Static: -0.5, Commuting: 1.3, NonCommuting: 0.2}, 53, 1, 1); err == nil {
		t.Error("negative fraction accepted")
	}
	if _, err := New(u, DefaultMix(), 0, 1, 1); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := New(u, DefaultMix(), 53, 0, 1); err == nil {
		t.Error("zero replica cap accepted")
	}
	if err := DefaultMix().Validate(); err != nil {
		t.Errorf("default mix invalid: %v", err)
	}
}
