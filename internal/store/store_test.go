package store

import (
	"errors"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"radar/internal/object"
	"radar/internal/workload"
)

const kb = 1024

func build(t testing.TB, spec string) *Stack {
	t.Helper()
	sp, err := ParseSpec(spec)
	if err != nil {
		t.Fatalf("ParseSpec(%q) = %v", spec, err)
	}
	return sp.Build(kb)
}

// drive plays a host over st for a scripted operation sequence — creating
// only what it does not hold and while the stack has room, dropping only
// what it holds, serving what it holds — and returns the final stats, for
// determinism comparisons.
func drive(st *Stack, ops int, seed int64) []LayerStats {
	rng := workload.Stream(seed, 0)
	held := make(map[object.ID]bool)
	for i := 0; i < ops; i++ {
		id := object.ID(rng.Intn(200))
		switch op := rng.Intn(10); {
		case op == 1 && held[id]:
			st.Drop(id)
			delete(held, id)
		case held[id]:
			st.ServeCost(id)
		case !st.Full():
			st.Create(id)
			held[id] = true
		}
	}
	return st.Stats(nil)
}

func TestMemoryBasics(t *testing.T) {
	m := build(t, "mem:2")
	m.Create(1)
	if m.Full() {
		t.Fatal("full after one create under capacity 2")
	}
	m.Create(2)
	if !m.Full() {
		t.Error("not full at capacity")
	}
	if c := m.ServeCost(1); c != 0 {
		t.Errorf("memory ServeCost = %v, want 0", c)
	}
	m.Drop(1)
	if m.Full() {
		t.Error("full after a drop")
	}
	want := LayerStats{Label: "mem:2", Creates: 2, Drops: 1, Serves: 1, Replicas: 1, BytesUsed: kb}
	if st := m.Stats(nil); len(st) != 1 || st[0] != want {
		t.Errorf("Stats = %+v, want %+v", st, want)
	}
}

// TestMemoryOutsideIDs: a stack keeps no per-ID state outside its memory
// tier's resident set, so IDs far outside any universe, negative or huge,
// create, serve and drop like any other.
func TestMemoryOutsideIDs(t *testing.T) {
	ids := []object.ID{-1, -64, math.MinInt, 64, 1 << 20, math.MaxInt}
	for _, spec := range []string{"mem", "cache(mem:2,disk:1ms)"} {
		s := build(t, spec)
		for _, id := range ids {
			s.Create(id)
			s.ServeCost(id)
		}
		for _, id := range ids {
			s.Drop(id)
		}
		for _, l := range s.Stats(nil) {
			if l.Replicas != 0 || l.Drops == 0 {
				t.Errorf("%s: layer %+v after dropping every ID", spec, l)
			}
		}
	}
}

// refStack is FuzzStack's reference: the authoritative count, and the
// memory tier as a slice of resident IDs, most recently used first.
type refStack struct {
	capacity int
	latency  time.Duration
	lruCap   int // 0: no memory tier
	lru      []object.ID
	c, f, a  LayerStats // cache layer, memory tier, authoritative tier
}

func (r *refStack) full() bool { return r.capacity > 0 && r.a.Replicas >= int64(r.capacity) }

// touch makes id the most recently used resident ID and reports whether
// it was resident.
func (r *refStack) touch(id object.ID) bool {
	if i := slices.Index(r.lru, id); i >= 0 {
		r.lru = slices.Insert(slices.Delete(r.lru, i, i+1), 0, id)
		return true
	}
	if len(r.lru) == r.lruCap {
		r.lru = r.lru[:len(r.lru)-1]
		r.c.Evictions++
		r.f.Drops++
	}
	r.lru = slices.Insert(r.lru, 0, id)
	r.f.Creates++
	return false
}

func (r *refStack) create(id object.ID) {
	r.a.Creates++
	r.a.Replicas++
	if r.lruCap > 0 {
		r.c.Creates++
		r.touch(id)
	}
}

func (r *refStack) drop(id object.ID) {
	r.a.Drops++
	r.a.Replicas--
	if r.lruCap > 0 {
		r.c.Drops++
		if i := slices.Index(r.lru, id); i >= 0 {
			r.lru = slices.Delete(r.lru, i, i+1)
			r.f.Drops++
		}
	}
}

func (r *refStack) serve(id object.ID) time.Duration {
	if r.lruCap == 0 {
		r.a.Serves++
		r.a.CostNanos += int64(r.latency)
		return r.latency
	}
	r.c.Serves++
	if r.touch(id) {
		r.c.Hits++
		r.f.Serves++
		return 0
	}
	r.c.Misses++
	r.c.CostNanos += int64(r.latency)
	r.a.Serves++
	r.a.CostNanos += int64(r.latency)
	return r.latency
}

func (r *refStack) stats() []LayerStats {
	a := r.a
	a.BytesUsed = a.Replicas * kb
	if r.lruCap == 0 {
		return []LayerStats{a}
	}
	c, f := r.c, r.f
	c.Replicas, c.BytesUsed = a.Replicas, a.BytesUsed
	f.Replicas = int64(len(r.lru))
	f.BytesUsed = f.Replicas * kb
	return []LayerStats{c, f, a}
}

// FuzzStack holds stacks of every shape against refStack under the
// host-authoritative contract: each pair of bytes creates an ID the host
// does not hold (unless the stack is full), drops one it holds, or serves
// any ID, held or not; Full, every serve cost and every layer's stats must
// agree with the reference after every step.
func FuzzStack(f *testing.F) {
	f.Add([]byte{0, 1, 0, 63, 0, 64, 0, 200, 1, 64, 2, 63, 2, 9, 0, 64, 1, 7, 2, 1, 2, 200})
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 1, 3, 0, 7, 0, 8, 1, 1, 2, 2, 2, 8, 2, 4})
	stacks := []struct {
		spec   string
		labels []string
		ref    refStack
	}{
		{"mem", []string{"mem"}, refStack{}},
		{"mem:5", []string{"mem:5"}, refStack{capacity: 5}},
		{"disk:3ms", []string{"disk:3ms"}, refStack{latency: 3 * time.Millisecond}},
		{"cache(mem:3,disk:2ms)", []string{"cache", "mem:3", "disk:2ms"}, refStack{latency: 2 * time.Millisecond, lruCap: 3}},
		{"cache(mem,mem:6)", []string{"cache", "mem", "mem:6"}, refStack{capacity: 6, lruCap: defaultCacheCap}},
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		for _, sk := range stacks {
			s, ref := build(t, sk.spec), sk.ref
			held := make(map[object.ID]bool)
			for step := 0; step+1 < len(prog); step += 2 {
				id := object.ID(int8(prog[step+1]))
				if s.Full() != ref.full() {
					t.Fatalf("%s step %d: Full = %v, want %v", sk.spec, step, s.Full(), ref.full())
				}
				switch prog[step] % 3 {
				case 0:
					if !held[id] && !ref.full() {
						held[id] = true
						s.Create(id)
						ref.create(id)
					}
				case 1:
					if held[id] {
						delete(held, id)
						s.Drop(id)
						ref.drop(id)
					}
				case 2:
					if got, want := s.ServeCost(id), ref.serve(id); got != want {
						t.Fatalf("%s step %d: ServeCost(%d) = %v, want %v", sk.spec, step, id, got, want)
					}
				}
				want := ref.stats()
				for i := range want {
					want[i].Label = sk.labels[i]
				}
				if got := s.Stats(nil); !slices.Equal(got, want) {
					t.Fatalf("%s step %d: Stats =\n%+v, want\n%+v", sk.spec, step, got, want)
				}
			}
		}
	})
}

func TestDiskCharges(t *testing.T) {
	d := build(t, "disk:5ms")
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
	c := build(t, "cache(mem:2,disk:5ms)")
	for id := object.ID(1); id <= 3; id++ {
		c.Create(id)
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
	// The authoritative tier counts every created replica regardless of
	// cache residency; the memory tier only the resident ones.
	if st[0].Replicas != 3 || st[1].Replicas != 2 || st[2].Replicas != 3 {
		t.Errorf("replicas per layer = %d, %d, %d, want 3, 2, 3", st[0].Replicas, st[1].Replicas, st[2].Replicas)
	}
	// Drop removes from both tiers.
	c.Drop(1)
	if st := c.Stats(nil); st[1].Replicas != 1 || st[2].Replicas != 2 {
		t.Errorf("after the drop: %d resident, %d held, want 1, 2", st[1].Replicas, st[2].Replicas)
	}
}

// TestCacheDropCountsHeldOnly: a drop counts on the cache layer and the
// authoritative tier, and on the memory tier only for a resident replica
// (where an eviction counts too).
func TestCacheDropCountsHeldOnly(t *testing.T) {
	c := build(t, "cache(mem:2,disk:5ms)")
	drops := func() []int64 {
		var n []int64
		for _, l := range c.Stats(nil) {
			n = append(n, l.Drops)
		}
		return n
	}
	for id := object.ID(5); id <= 7; id++ {
		c.Create(id) // 7 evicts 5
	}
	for _, step := range []struct {
		id   object.ID
		want []int64 // cache, memory tier, authoritative tier
	}{
		{5, []int64{1, 1, 1}},
		{7, []int64{2, 2, 2}},
		{6, []int64{3, 3, 3}},
	} {
		c.Drop(step.id)
		if got := drops(); !slices.Equal(got, step.want) {
			t.Fatalf("drop of %d: drops %v, want %v", step.id, got, step.want)
		}
	}
}

func TestCacheEvictionDeterminism(t *testing.T) {
	a := drive(build(t, "cache(mem:8,disk:5ms)"), 5000, 42)
	b := drive(build(t, "cache(mem:8,disk:5ms)"), 5000, 42)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("identical op sequences diverged:\n%+v\n%+v", a, b)
	}
	if a[0].Evictions == 0 || a[0].Hits == 0 || a[0].Misses == 0 {
		t.Errorf("drive did not exercise the cache: %+v", a[0])
	}
}

func TestAggregate(t *testing.T) {
	a, b := build(t, "cache(mem:2,disk:5ms)"), build(t, "cache(mem:2,disk:5ms)")
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
		{"mem:0", "mem"},
		{"mem:64", "mem:64"},
		{" mem : 64 ", "mem:64"},
		{"disk", "disk:5ms"},
		{"disk:10ms", "disk:10ms"},
		{"disk:1500us", "disk:1.5ms"},
		{"cache(mem:64, disk:5ms)", "cache(mem:64,disk:5ms)"},
		{"cache (\tmem , disk ) ", "cache(mem,disk:5ms)"},
		{"cache(mem, disk)", "cache(mem,disk:5ms)"},
		{"cache(mem:4,mem:8)", "cache(mem:4,mem:8)"},
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
		} else if again != sp {
			t.Errorf("canonical form unstable: %q -> %q", sp.String(), again.String())
		}
	}
}

func TestParseSpecRejects(t *testing.T) {
	bad := []string{
		"flash", "mem:x", "mem:-1", "mem:9999999999", "mem:", "mem 4", "mem\n",
		"disk:bogus", "disk:-5ms", "disk:0", "disk:11s",
		"cache", "cache(mem)", "cache(disk,mem)", "cache(mem,disk", "cache(mem,disk))",
		"cache(mem,disk,mem)", "cache(mem,disk)x",
		"mirror(mem,mem)", "faulty(mem)", "metered(mem)", "mem extra",
		// Caches do not nest.
		"cache(mem:8,cache(mem:4,disk))", "cache(cache(mem,disk),mem)",
		"cache(mem:8, cache(mem:64, disk:1ms))",
		strings.Repeat(" ", maxSpecLen) + "mem",
	}
	for _, s := range bad {
		if sp, err := ParseSpec(s); !errors.Is(err, ErrSpec) {
			t.Errorf("ParseSpec(%q) = %q, %v; want an ErrSpec refusal", s, sp.String(), err)
		}
	}
}

func TestSpecDefaults(t *testing.T) {
	var zero Spec
	if !zero.IsDefault() {
		t.Error("zero Spec not default")
	}
	for _, s := range []string{"", "mem", " mem ", "mem:0"} {
		sp, err := ParseSpec(s)
		if err != nil {
			t.Fatalf("ParseSpec(%q) = %v", s, err)
		}
		if !sp.IsDefault() {
			t.Errorf("ParseSpec(%q) not default", s)
		}
	}
	for _, s := range []string{"mem:4", "disk", "cache(mem,disk)", "cache(mem,mem)"} {
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
	for spec, labels := range map[string][]string{
		"mem":               {"mem"},
		"mem:16":            {"mem:16"},
		"disk:2ms":          {"disk:2ms"},
		"cache(mem:8,disk)": {"cache", "mem:8", "disk:5ms"},
		"cache(mem,mem:4)":  {"cache", "mem", "mem:4"},
	} {
		for i := 0; i < 4; i++ {
			st := build(t, spec)
			st.Create(1)
			st.ServeCost(1)
			st.Drop(1)
			var got []string
			for _, l := range st.Stats(nil) {
				got = append(got, l.Label)
			}
			if !slices.Equal(got, labels) {
				t.Errorf("%q stack %d has layers %q, want %q", spec, i, got, labels)
			}
		}
	}
}

func FuzzStoreSpec(f *testing.F) {
	f.Add("mem")
	f.Add("mem:64")
	f.Add("disk:5ms")
	f.Add("cache(mem:64,disk:5ms)")
	// A cache has one memory tier over one mem or disk tier; every layer
	// counts its own operations (LayerStats), so the grammar has no
	// nested cache, no pass-through meter, no mirrored pair and no fault
	// injection (a host crash in the simulator is the one crash model).
	for _, removed := range []struct{ spec, why string }{
		{"cache(mem:8,cache(mem:64,disk:1ms))", "caches do not nest"},
		{"metered(mem)", `unknown backend "metered"`},
		{"mirror(mem,mem)", `unknown backend "mirror"`},
		{"faulty(mem)", `unknown backend "faulty"`},
	} {
		if _, err := ParseSpec(removed.spec); !errors.Is(err, ErrSpec) || !strings.Contains(err.Error(), removed.why) {
			f.Fatalf("ParseSpec(%q) = %v, want %q", removed.spec, err, removed.why)
		}
		f.Add(removed.spec)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sp, err := ParseSpec(s)
		if err != nil {
			if !errors.Is(err, ErrSpec) {
				t.Fatalf("ParseSpec(%q) = %v, not an ErrSpec refusal", s, err)
			}
			return
		}
		// Canonical round-trip: String must re-parse to the same spec.
		canon := sp.String()
		again, err := ParseSpec(canon)
		if err != nil {
			t.Fatalf("canonical %q (from %q) does not re-parse: %v", canon, s, err)
		}
		if again != sp {
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
