package store

import (
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"radar/internal/object"
	"radar/internal/workload"
)

const kb = 1024

// drive applies a scripted operation sequence and returns the final
// flattened stats, for determinism comparisons.
func drive(st ReplicaStore, ops int, seed int64) []LayerStats {
	rng := workload.Stream(seed, 0)
	for i := 0; i < ops; i++ {
		id := object.ID(rng.Intn(200))
		switch rng.Intn(10) {
		case 0:
			st.Create(id)
		case 1:
			st.Drop(id)
		default:
			if st.Contains(id) {
				st.ServeCost(id)
			} else {
				st.Create(id)
			}
		}
	}
	return st.Stats(nil)
}

func TestMemoryBasics(t *testing.T) {
	m := NewMemory("mem:2", 2, kb)
	if !m.Create(1) || !m.Create(2) {
		t.Fatal("creates under capacity refused")
	}
	if m.Create(3) {
		t.Error("create over capacity accepted")
	}
	if !m.Create(1) {
		t.Error("re-create of held replica refused")
	}
	if got := m.BytesUsed(); got != 2*kb {
		t.Errorf("BytesUsed = %d, want %d", got, 2*kb)
	}
	if c := m.ServeCost(1); c != 0 {
		t.Errorf("memory ServeCost = %v, want 0", c)
	}
	m.Drop(1)
	if m.Contains(1) || !m.Contains(2) {
		t.Error("drop affected the wrong replica")
	}
}

func TestDiskCharges(t *testing.T) {
	d := NewDisk("disk:5ms", 5*time.Millisecond, kb)
	d.Create(7)
	if c := d.ServeCost(7); c != 5*time.Millisecond {
		t.Errorf("disk ServeCost = %v, want 5ms", c)
	}
	st := d.Stats(nil)
	if st[0].Serves != 1 || st[0].CostNanos != int64(5*time.Millisecond) {
		t.Errorf("disk stats = %+v", st[0])
	}
}

func TestCacheHitMissEviction(t *testing.T) {
	c := NewCache(NewMemory("mem:2", 2, kb), NewDisk("disk:5ms", 5*time.Millisecond, kb), 2)
	for id := object.ID(1); id <= 3; id++ {
		if !c.Create(id) {
			t.Fatalf("create %d refused", id)
		}
	}
	// Creates promote; capacity 2, so one eviction already happened.
	// Serve id 1: evicted (LRU among {2,3} kept), so it misses and pays
	// the disk, then promotes, evicting the next LRU.
	if cost := c.ServeCost(1); cost != 5*time.Millisecond {
		t.Errorf("miss cost = %v, want 5ms", cost)
	}
	if cost := c.ServeCost(1); cost != 0 {
		t.Errorf("hit cost = %v, want 0", cost)
	}
	st := c.Stats(nil)
	if st[0].Label != "cache" || st[0].Hits != 1 || st[0].Misses != 1 {
		t.Errorf("cache stats = %+v", st[0])
	}
	if st[0].Evictions != 2 {
		t.Errorf("evictions = %d, want 2", st[0].Evictions)
	}
	// Contains is authoritative on the slow tier: every created replica
	// is present regardless of cache residency.
	for id := object.ID(1); id <= 3; id++ {
		if !c.Contains(id) {
			t.Errorf("Contains(%d) = false after create", id)
		}
	}
	// Drop removes from both tiers.
	c.Drop(1)
	if c.Contains(1) {
		t.Error("dropped replica still present")
	}
}

func TestCacheEvictionDeterminism(t *testing.T) {
	build := func() ReplicaStore {
		return NewCache(NewMemory("mem:8", 8, kb), NewDisk("disk:5ms", 5*time.Millisecond, kb), 8)
	}
	a := drive(build(), 5000, 42)
	b := drive(build(), 5000, 42)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("identical op sequences diverged:\n%+v\n%+v", a, b)
	}
	if a[0].Evictions == 0 || a[0].Hits == 0 || a[0].Misses == 0 {
		t.Errorf("drive did not exercise the cache: %+v", a[0])
	}
}

func TestAggregate(t *testing.T) {
	build := func() ReplicaStore {
		return NewCache(NewMemory("mem:2", 2, kb), NewDisk("disk:5ms", 5*time.Millisecond, kb), 2)
	}
	a, b := build(), build()
	a.Create(1)
	a.ServeCost(1)
	b.Create(2)
	b.ServeCost(2)
	b.ServeCost(2)
	agg := Aggregate(Aggregate(nil, a.Stats(nil)), b.Stats(nil))
	if len(agg) != 3 {
		t.Fatalf("aggregate layers = %d, want 3", len(agg))
	}
	if agg[0].Label != "cache" || agg[0].Serves != 3 || agg[0].Hits != 3 {
		t.Errorf("aggregated cache layer = %+v", agg[0])
	}
	if agg[0].Replicas != 2 {
		t.Errorf("aggregated replicas = %d, want 2", agg[0].Replicas)
	}
}

func TestParseSpecCanonical(t *testing.T) {
	cases := []struct {
		in, want string
	}{
		{"", "mem"},
		{"mem", "mem"},
		{"mem:64", "mem:64"},
		{"disk", "disk:5ms"},
		{"disk:10ms", "disk:10ms"},
		{"cache(mem:64, disk:5ms)", "cache(mem:64,disk:5ms)"},
		{"cache(mem, disk)", "cache(mem,disk:5ms)"},
		{"cache(mem:8, cache(mem:64, disk:1ms))", "cache(mem:8,cache(mem:64,disk:1ms))"},
	}
	for _, tc := range cases {
		sp, err := ParseSpec(tc.in)
		if err != nil {
			t.Errorf("ParseSpec(%q) = %v", tc.in, err)
			continue
		}
		if got := sp.String(); got != tc.want {
			t.Errorf("ParseSpec(%q).String() = %q, want %q", tc.in, got, tc.want)
		}
		// Canonical form re-parses to itself.
		again, err := ParseSpec(sp.String())
		if err != nil {
			t.Errorf("reparse of %q failed: %v", sp.String(), err)
		} else if again.String() != sp.String() {
			t.Errorf("canonical form unstable: %q -> %q", sp.String(), again.String())
		}
	}
}

func TestParseSpecRejects(t *testing.T) {
	bad := []string{
		"flash", "mem:x", "mem:-1", "mem:9999999999",
		"disk:bogus", "disk:-5ms", "disk:11s",
		"cache(mem)", "cache(disk,mem)", "cache(mem,disk", "cache(mem,disk))",
		"mirror(mem,mem)", "faulty(mem)", "metered(mem)", "mem extra",
		"cache(cache(mem,cache(mem,cache(mem,cache(mem,cache(mem,cache(mem,mem)))))),mem)",
	}
	for _, s := range bad {
		if sp, err := ParseSpec(s); err == nil {
			t.Errorf("ParseSpec(%q) accepted as %q", s, sp.String())
		}
	}
}

func TestSpecDefaults(t *testing.T) {
	var zero Spec
	if !zero.IsDefault() {
		t.Error("zero Spec not default")
	}
	for _, s := range []string{"", "mem", " mem "} {
		sp, err := ParseSpec(s)
		if err != nil {
			t.Fatalf("ParseSpec(%q) = %v", s, err)
		}
		if !sp.IsDefault() {
			t.Errorf("ParseSpec(%q) not default", s)
		}
	}
	for _, s := range []string{"mem:4", "disk", "cache(mem,disk)"} {
		sp, err := ParseSpec(s)
		if err != nil {
			t.Fatalf("ParseSpec(%q) = %v", s, err)
		}
		if sp.IsDefault() {
			t.Errorf("ParseSpec(%q) reported default", s)
		}
	}
}

func TestBuildShapes(t *testing.T) {
	specs := []string{
		"mem", "mem:16", "disk:2ms", "cache(mem:8,disk)",
		"cache(mem:4,cache(mem:8,disk))",
	}
	for _, s := range specs {
		sp, err := ParseSpec(s)
		if err != nil {
			t.Fatalf("ParseSpec(%q) = %v", s, err)
		}
		stores := make([]ReplicaStore, 4)
		for i := range stores {
			stores[i] = sp.Build(kb)
		}
		for i, st := range stores {
			if !st.Create(1) {
				t.Fatalf("%q store %d refused first create", s, i)
			}
			if !st.Contains(1) {
				t.Fatalf("%q store %d lost first replica", s, i)
			}
			st.ServeCost(1)
			st.Drop(1)
		}
		// Same-shape stacks must flatten to the same layer count.
		want := len(stores[0].Stats(nil))
		for i, st := range stores {
			if got := len(st.Stats(nil)); got != want {
				t.Errorf("%q store %d has %d layers, want %d", s, i, got, want)
			}
		}
	}
}

func FuzzStoreSpec(f *testing.F) {
	f.Add("mem")
	f.Add("mem:64")
	f.Add("disk:5ms")
	f.Add("cache(mem:64,disk:5ms)")
	f.Add("cache(mem:8,cache(mem:64,disk:1ms))")
	// Every layer counts its own operations (LayerStats); the grammar has
	// no pass-through meter, no mirrored pair and no fault injection (a
	// host crash in the simulator is the one crash model).
	for _, removed := range []struct{ spec, kw string }{
		{"metered(mem)", "metered"}, {"mirror(mem,mem)", "mirror"}, {"faulty(mem)", "faulty"},
	} {
		if _, err := ParseSpec(removed.spec); err == nil || !strings.Contains(err.Error(), `unknown backend "`+removed.kw+`"`) {
			f.Fatalf("ParseSpec(%q) = %v, want an unknown-backend error", removed.spec, err)
		}
		f.Add(removed.spec)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sp, err := ParseSpec(s)
		if err != nil {
			return
		}
		// Canonical round-trip: String must re-parse to the same form.
		canon := sp.String()
		again, err := ParseSpec(canon)
		if err != nil {
			t.Fatalf("canonical %q (from %q) does not re-parse: %v", canon, s, err)
		}
		if again.String() != canon {
			t.Fatalf("canonical form unstable: %q -> %q", canon, again.String())
		}
		// Any parsed spec must build, behave deterministically, and
		// report one layer per term of its canonical spec, in pre-order
		// (the shape Aggregate sums across nodes).
		a := drive(sp.Build(kb), 300, 5)
		b := drive(sp.Build(kb), 300, 5)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("spec %q nondeterministic:\n%+v\n%+v", canon, a, b)
		}
		if want := specTerms(canon); len(a) != len(want) {
			t.Fatalf("spec %q has %d layers, want %d", canon, len(a), len(want))
		} else {
			for i, l := range a {
				if !strings.HasPrefix(l.Label, want[i]) {
					t.Fatalf("spec %q layer %d is %q, want a %s layer", canon, i, l.Label, want[i])
				}
			}
		}
	})
}

// specTerms lists the backend keyword of every term of a canonical spec in
// pre-order, the order a built stack's Stats reports its layers in. The
// other lowercase words of a canonical spec are duration units.
func specTerms(canon string) []string {
	words := strings.FieldsFunc(canon, func(r rune) bool { return r < 'a' || r > 'z' })
	return slices.DeleteFunc(words, func(w string) bool { return w != "mem" && w != "disk" && w != "cache" })
}
