package store

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"radar/internal/fault"
	"radar/internal/object"
	"radar/internal/workload"
)

const kb = 1024

// drive applies a scripted operation sequence and returns the final
// flattened stats, for determinism comparisons.
func drive(st ReplicaStore, ops int, seed int64) []LayerStats {
	rng := workload.Stream(seed, 0)
	now := time.Duration(0)
	for i := 0; i < ops; i++ {
		now += time.Duration(rng.Intn(50)+1) * time.Millisecond
		id := object.ID(rng.Intn(200))
		switch rng.Intn(10) {
		case 0:
			st.Create(now, id)
		case 1:
			st.Drop(now, id)
		default:
			if st.Contains(id) {
				st.ServeCost(now, id)
			} else {
				st.Create(now, id)
			}
		}
	}
	return st.Stats(nil)
}

func TestMemoryBasics(t *testing.T) {
	m := NewMemory("mem:2", 2, kb)
	now := time.Duration(0)
	if !m.Create(now, 1) || !m.Create(now, 2) {
		t.Fatal("creates under capacity refused")
	}
	if m.Create(now, 3) {
		t.Error("create over capacity accepted")
	}
	if !m.Create(now, 1) {
		t.Error("re-create of held replica refused")
	}
	if got := m.BytesUsed(); got != 2*kb {
		t.Errorf("BytesUsed = %d, want %d", got, 2*kb)
	}
	if c := m.ServeCost(now, 1); c != 0 {
		t.Errorf("memory ServeCost = %v, want 0", c)
	}
	m.Drop(now, 1)
	if m.Contains(1) || !m.Contains(2) {
		t.Error("drop affected the wrong replica")
	}
	m.Clear(now)
	if m.Replicas() != 0 {
		t.Error("Clear left replicas behind")
	}
}

func TestDiskCharges(t *testing.T) {
	d := NewDisk("disk:5ms", 5*time.Millisecond, kb)
	d.Create(0, 7)
	if c := d.ServeCost(0, 7); c != 5*time.Millisecond {
		t.Errorf("disk ServeCost = %v, want 5ms", c)
	}
	st := d.Stats(nil)
	if st[0].Serves != 1 || st[0].CostNanos != int64(5*time.Millisecond) {
		t.Errorf("disk stats = %+v", st[0])
	}
}

func TestCacheHitMissEviction(t *testing.T) {
	c := NewCache(NewMemory("mem:2", 2, kb), NewDisk("disk:5ms", 5*time.Millisecond, kb), 2)
	now := time.Duration(0)
	for id := object.ID(1); id <= 3; id++ {
		if !c.Create(now, id) {
			t.Fatalf("create %d refused", id)
		}
	}
	// Creates promote; capacity 2, so one eviction already happened.
	// Serve id 1: evicted (LRU among {2,3} kept), so it misses and pays
	// the disk, then promotes, evicting the next LRU.
	if cost := c.ServeCost(now, 1); cost != 5*time.Millisecond {
		t.Errorf("miss cost = %v, want 5ms", cost)
	}
	if cost := c.ServeCost(now, 1); cost != 0 {
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
	c.Drop(now, 1)
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

func TestMirrorReadRepairConvergence(t *testing.T) {
	a := NewMemory("mem", 0, kb)
	b := NewMemory("mem", 0, kb)
	m := NewMirror(a, b)
	now := time.Duration(0)
	for id := object.ID(1); id <= 10; id++ {
		m.Create(now, id)
	}
	// Simulate divergence: side B loses everything.
	b.Clear(now)
	if a.Replicas() != 10 || b.Replicas() != 0 {
		t.Fatalf("setup: a=%d b=%d", a.Replicas(), b.Replicas())
	}
	// Every serve heals the served replica on the lost side.
	for id := object.ID(1); id <= 10; id++ {
		if !m.Contains(id) {
			t.Fatalf("mirror lost replica %d", id)
		}
		m.ServeCost(now, id)
	}
	if b.Replicas() != 10 {
		t.Errorf("read-repair left b at %d replicas, want 10", b.Replicas())
	}
	st := m.Stats(nil)
	if st[0].Repairs != 10 {
		t.Errorf("Repairs = %d, want 10", st[0].Repairs)
	}
	// Converged: further serves repair nothing.
	m.ServeCost(now, 1)
	if got := m.Stats(nil)[0].Repairs; got != 10 {
		t.Errorf("Repairs after convergence = %d, want 10", got)
	}
}

func TestMirrorAccounting(t *testing.T) {
	m := NewMirror(NewMemory("mem", 0, kb), NewMemory("mem", 0, kb))
	m.Create(0, 1)
	m.Create(0, 2)
	if m.Replicas() != 2 || m.BytesUsed() != 2*kb {
		t.Errorf("mirror accounting: replicas=%d bytes=%d", m.Replicas(), m.BytesUsed())
	}
	m.Drop(0, 1)
	if m.Replicas() != 1 {
		t.Errorf("replicas after drop = %d", m.Replicas())
	}
}

// outage builds a deterministic single-window timeline: down at from, up
// at to.
func outage(from, to time.Duration) []fault.Event {
	return []fault.Event{
		{Kind: fault.HostDown, At: from},
		{Kind: fault.HostUp, At: to},
	}
}

func TestFaultyOutageSemantics(t *testing.T) {
	const penalty = 25 * time.Millisecond
	f := NewFaulty(NewMemory("mem", 0, kb), outage(10*time.Second, 20*time.Second), penalty)

	// Before the outage: normal behavior.
	f.Create(time.Second, 1)
	if c := f.ServeCost(2*time.Second, 1); c != 0 {
		t.Errorf("pre-outage serve cost = %v, want 0", c)
	}

	// During the outage: contents wiped, writes lost, serves refetch.
	if c := f.ServeCost(15*time.Second, 1); c != penalty {
		t.Errorf("outage serve cost = %v, want %v", c, penalty)
	}
	if !f.Create(16*time.Second, 2) {
		t.Error("create during outage not acknowledged")
	}
	if f.Contains(2) {
		t.Error("lost write visible during outage")
	}

	// After recovery: the lost replica refetches once, then serves free.
	if c := f.ServeCost(25*time.Second, 2); c != penalty {
		t.Errorf("post-outage first serve = %v, want refetch penalty", c)
	}
	if c := f.ServeCost(26*time.Second, 2); c != 0 {
		t.Errorf("post-refetch serve = %v, want 0", c)
	}

	st := f.Stats(nil)
	if st[0].Crashes != 1 || st[0].LostWrites != 1 || st[0].Refetches != 2 {
		t.Errorf("faulty stats = %+v", st[0])
	}
}

// TestFaultyBackendIsolation pins that a faulty side's outages stay
// contained: the mirror keeps serving and read-repair restores the
// faulty side, never the healthy one.
func TestFaultyBackendIsolation(t *testing.T) {
	healthy := NewMemory("mem", 0, kb)
	flaky := NewFaulty(NewMemory("mem", 0, kb), outage(10*time.Second, 20*time.Second), 25*time.Millisecond)
	m := NewMirror(healthy, flaky)

	for id := object.ID(1); id <= 5; id++ {
		m.Create(time.Second, id)
	}
	// During the outage every replica still serves (healthy side, free).
	for id := object.ID(1); id <= 5; id++ {
		if !m.Contains(id) {
			t.Fatalf("mirror lost replica %d during backend outage", id)
		}
		if c := m.ServeCost(15*time.Second, id); c != 0 {
			t.Errorf("serve cost during outage = %v, want 0 (healthy side)", c)
		}
	}
	if healthy.Replicas() != 5 {
		t.Errorf("healthy side at %d replicas, want 5", healthy.Replicas())
	}
	// After recovery, serves repair the flaky side back to parity.
	for id := object.ID(1); id <= 5; id++ {
		m.ServeCost(25*time.Second, id)
	}
	if flaky.Replicas() != 5 {
		t.Errorf("flaky side at %d replicas after repair, want 5", flaky.Replicas())
	}
}

func TestFaultyDeterminism(t *testing.T) {
	build := func() (ReplicaStore, error) {
		sp, err := ParseSpec("mirror(faulty(mem,mtbf:30s,mttr:5s), mem)")
		if err != nil {
			return nil, err
		}
		return sp.Build(3, Params{Seed: 7, Horizon: 10 * time.Minute, ObjBytes: kb})
	}
	a, err := build()
	if err != nil {
		t.Fatal(err)
	}
	b, err := build()
	if err != nil {
		t.Fatal(err)
	}
	sa := drive(a, 8000, 99)
	sb := drive(b, 8000, 99)
	if !reflect.DeepEqual(sa, sb) {
		t.Errorf("equal seeds diverged:\n%+v\n%+v", sa, sb)
	}
	if sa[1].Crashes == 0 {
		t.Errorf("no backend crashes over a 10m horizon at mtbf 30s: %+v", sa[1])
	}
}

func TestAggregate(t *testing.T) {
	build := func() ReplicaStore {
		return NewCache(NewMemory("mem:2", 2, kb), NewDisk("disk:5ms", 5*time.Millisecond, kb), 2)
	}
	a, b := build(), build()
	a.Create(0, 1)
	a.ServeCost(0, 1)
	b.Create(0, 2)
	b.ServeCost(0, 2)
	b.ServeCost(0, 2)
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
		{"mirror(mem, mem)", "mirror(mem,mem)"},
		{"faulty(mem)", "faulty(mem,mtbf:2m0s,mttr:30s,penalty:25ms)"},
		{"faulty(disk:1ms, mtbf:5m, mttr:10s)", "faulty(disk:1ms,mtbf:5m0s,mttr:10s,penalty:25ms)"},
		{"mirror(faulty(mem), disk)", "mirror(faulty(mem,mtbf:2m0s,mttr:30s,penalty:25ms),disk:5ms)"},
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
		"mirror(mem)", "faulty(mem,mtbf:1ms)", "faulty(mem,mttr:0s)",
		"faulty(mem,nope:3s)", "metered(mem)", "mem extra",
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
		"mirror(mem,disk)", "faulty(mem,mtbf:30s,mttr:5s)",
		"mirror(faulty(mem),mem)",
	}
	for _, s := range specs {
		sp, err := ParseSpec(s)
		if err != nil {
			t.Fatalf("ParseSpec(%q) = %v", s, err)
		}
		stores := make([]ReplicaStore, 4)
		for i := range stores {
			if stores[i], err = sp.Build(i, Params{Seed: 1, Horizon: time.Minute, ObjBytes: kb}); err != nil {
				t.Fatalf("Build(%q, %d) = %v", s, i, err)
			}
		}
		for i, st := range stores {
			if !st.Create(0, 1) {
				t.Fatalf("%q store %d refused first create", s, i)
			}
			if !st.Contains(1) {
				t.Fatalf("%q store %d lost first replica", s, i)
			}
			st.ServeCost(time.Second, 1)
			st.Drop(2*time.Second, 1)
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
	f.Add("mirror(faulty(mem,mtbf:30s,mttr:5s),mem)")
	f.Add("cache(mem:8,mirror(disk,disk:1ms))")
	// Every layer counts its own operations (LayerStats); the grammar has
	// no pass-through meter.
	if _, err := ParseSpec("metered(mem)"); err == nil || !strings.Contains(err.Error(), `unknown backend "metered"`) {
		f.Fatalf(`ParseSpec("metered(mem)") = %v, want an unknown-backend error`, err)
	}
	f.Add("metered(mem)")
	f.Add("cache(mem, faulty(disk, penalty:0s))")
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
		// Any parsed spec must build, behave deterministically, and keep
		// a stable layer shape.
		build := func() ReplicaStore {
			st, err := sp.Build(0, Params{Seed: 11, Horizon: 30 * time.Second, ObjBytes: kb})
			if err != nil {
				t.Fatalf("Build(%q) = %v", canon, err)
			}
			return st
		}
		a := drive(build(), 300, 5)
		b := drive(build(), 300, 5)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("spec %q nondeterministic:\n%+v\n%+v", canon, a, b)
		}
	})
}

func TestStreamIsolationAcrossNodes(t *testing.T) {
	// Different nodes draw different outage timelines from the reserved
	// stream range (no accidental sharing).
	sp, err := ParseSpec("faulty(mem,mtbf:30s,mttr:5s)")
	if err != nil {
		t.Fatal(err)
	}
	p := Params{Seed: 3, Horizon: time.Hour, ObjBytes: kb}
	crash := func(node int) int64 {
		st, err := sp.Build(node, p)
		if err != nil {
			t.Fatal(err)
		}
		// Advance time so the whole timeline applies.
		st.ServeCost(p.Horizon, 1)
		return st.Stats(nil)[0].Crashes
	}
	same := true
	base := crash(0)
	for n := 1; n < 4; n++ {
		if crash(n) != base {
			same = false
		}
	}
	if same {
		t.Error("all nodes drew identical crash counts; streams look shared")
	}
}
