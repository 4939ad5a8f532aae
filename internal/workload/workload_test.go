package workload

import (
	"errors"
	"testing"

	"radar/internal/object"
	"radar/internal/topology"
)

var testUniverse = object.Universe{Count: 1000, SizeBytes: 12 << 10}

func TestUniformCoversRange(t *testing.T) {
	w, err := NewUniform(testUniverse)
	if err != nil {
		t.Fatal(err)
	}
	rng := Stream(1, 0)
	seen := make(map[object.ID]bool)
	for i := 0; i < 50000; i++ {
		id := w.Next(0, rng)
		if id < 0 || int(id) >= testUniverse.Count {
			t.Fatalf("object %d out of range", id)
		}
		seen[id] = true
	}
	if len(seen) < testUniverse.Count*9/10 {
		t.Fatalf("uniform covered only %d/%d objects", len(seen), testUniverse.Count)
	}
}

func TestZipfHeadDominates(t *testing.T) {
	w, err := NewZipf(testUniverse)
	if err != nil {
		t.Fatal(err)
	}
	rng := Stream(2, 0)
	head := 0
	const draws = 100000
	for i := 0; i < draws; i++ {
		if w.Next(0, rng) < 10 {
			head++
		}
	}
	// Under Zipf over 1000 objects, the top-10 pages draw a large share
	// (roughly H(10)/H(1000) ≈ 39%); require well above uniform's 1%.
	if frac := float64(head) / draws; frac < 0.20 {
		t.Fatalf("top-10 share = %.3f, want >= 0.20", frac)
	}
}

func TestHotSitesSkew(t *testing.T) {
	const nodes = 53
	w, err := NewHotSites(testUniverse, nodes, 0.9, 7)
	if err != nil {
		t.Fatal(err)
	}
	hotSet := make(map[object.ID]bool, len(w.hot))
	hotSites := make(map[topology.NodeID]bool)
	for _, id := range w.hot {
		hotSet[id] = true
		hotSites[testUniverse.HomeNode(id, nodes)] = true
	}
	if len(hotSites) < 3 || len(hotSites) > 8 {
		t.Fatalf("hot sites = %d, want ~10%% of 53", len(hotSites))
	}
	rng := Stream(3, 0)
	hot := 0
	const draws = 100000
	for i := 0; i < draws; i++ {
		if hotSet[w.Next(0, rng)] {
			hot++
		}
	}
	if frac := float64(hot) / draws; frac < 0.85 || frac > 0.95 {
		t.Fatalf("hot-site request share = %.3f, want ~0.9", frac)
	}
}

func TestHotSitesConcentratedOnFewSites(t *testing.T) {
	// In hot-sites all hot documents live on a few sites initially — that
	// is the defining contrast with hot-pages.
	const nodes = 53
	w, err := NewHotSites(testUniverse, nodes, 0.9, 7)
	if err != nil {
		t.Fatal(err)
	}
	sites := make(map[topology.NodeID]int)
	for _, id := range w.hot {
		sites[testUniverse.HomeNode(id, nodes)]++
	}
	if len(sites) > 8 {
		t.Fatalf("hot pages spread over %d sites, want few", len(sites))
	}
}

func TestHotPagesSkewAndSpread(t *testing.T) {
	const nodes = 53
	w, err := NewHotPages(testUniverse, 0.1, 0.9, 11)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(w.hot); got != 100 {
		t.Fatalf("hot bucket = %d pages, want 100 (1:9 of 1000)", got)
	}
	// Hot pages must be spread across many sites (contrast with hot-sites).
	sites := make(map[topology.NodeID]bool)
	for _, id := range w.hot {
		sites[testUniverse.HomeNode(id, nodes)] = true
	}
	if len(sites) < nodes/2 {
		t.Fatalf("hot pages on only %d sites, want wide spread", len(sites))
	}
	hotSet := make(map[object.ID]bool)
	for _, id := range w.hot {
		hotSet[id] = true
	}
	rng := Stream(4, 0)
	hot := 0
	const draws = 100000
	for i := 0; i < draws; i++ {
		if hotSet[w.Next(0, rng)] {
			hot++
		}
	}
	if frac := float64(hot) / draws; frac < 0.85 || frac > 0.95 {
		t.Fatalf("hot-page share = %.3f, want ~0.9", frac)
	}
}

func TestRegionalPrefersOwnSlice(t *testing.T) {
	topo := topology.UUNET()
	w, err := NewRegional(testUniverse, topo, 0.01, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	regions := topology.Regions()
	// Preferred sets must be disjoint contiguous slices.
	seen := make(map[object.ID]topology.Region)
	for _, r := range regions {
		set := w.preferred[r]
		if len(set) != 10 {
			t.Fatalf("region %v preferred set = %d objects, want 10 (1%% of 1000)", r, len(set))
		}
		for i := 1; i < len(set); i++ {
			if set[i] != set[i-1]+1 {
				t.Fatalf("region %v preferred set not contiguous: %v", r, set)
			}
		}
		for _, id := range set {
			if prev, dup := seen[id]; dup {
				t.Fatalf("object %d preferred by both %v and %v", id, prev, r)
			}
			seen[id] = r
		}
	}
	// A node in Europe must request Europe's slice ~90% of the time.
	var euNode topology.NodeID
	for _, n := range topo.Nodes() {
		if n.Region == topology.Europe {
			euNode = n.ID
			break
		}
	}
	euSet := make(map[object.ID]bool)
	for _, id := range w.preferred[topology.Europe] {
		euSet[id] = true
	}
	rng := Stream(5, 0)
	local := 0
	const draws = 100000
	for i := 0; i < draws; i++ {
		if euSet[w.Next(euNode, rng)] {
			local++
		}
	}
	// 90% local plus ~1% of the uniform tail landing in the slice.
	if frac := float64(local) / draws; frac < 0.85 || frac > 0.95 {
		t.Fatalf("local share = %.3f, want ~0.9", frac)
	}
}

func TestConstructorValidation(t *testing.T) {
	topo := topology.UUNET()
	bad := object.Universe{Count: 0, SizeBytes: 1}
	if _, err := NewUniform(bad); err == nil {
		t.Error("NewUniform accepted empty universe")
	}
	if _, err := NewZipf(bad); err == nil {
		t.Error("NewZipf accepted empty universe")
	}
	if _, err := NewHotSites(testUniverse, 0, 0.9, 1); err == nil {
		t.Error("NewHotSites accepted zero nodes")
	}
	if _, err := NewHotSites(testUniverse, 53, 1.5, 1); err == nil {
		t.Error("NewHotSites accepted p out of range")
	}
	if _, err := NewHotPages(testUniverse, 0, 0.9, 1); err == nil {
		t.Error("NewHotPages accepted zero hot fraction")
	}
	if _, err := NewRegional(testUniverse, topo, 0.5, 0.9); err == nil {
		t.Error("NewRegional accepted oversized preferred fraction")
	}
	if _, err := NewRegional(object.Universe{Count: 2, SizeBytes: 1}, topo, 0.01, 0.9); err == nil {
		t.Error("NewRegional accepted universe smaller than region slices")
	}
}

func TestGeneratorNames(t *testing.T) {
	topo := topology.UUNET()
	z, _ := NewZipf(testUniverse)
	u, _ := NewUniform(testUniverse)
	hs, _ := NewHotSites(testUniverse, 53, 0.9, 1)
	hp, _ := NewHotPages(testUniverse, 0.1, 0.9, 1)
	rg, _ := NewRegional(testUniverse, topo, 0.01, 0.9)
	want := map[Generator]string{
		z: "zipf", u: "uniform", hs: "hot-sites", hp: "hot-pages", rg: "regional",
	}
	for g, name := range want {
		if g.Name() != name {
			t.Errorf("Name() = %q, want %q", g.Name(), name)
		}
	}
}

// TestNamedBuildsEveryName: the Names list and Named's switch agree — each
// listed name builds the generator that reports it — and a name outside
// the list is ErrUnknown.
func TestNamedBuildsEveryName(t *testing.T) {
	for _, name := range Names {
		g, err := Named(name, testUniverse, topology.UUNET(), 1)
		if err != nil {
			t.Fatalf("Named(%q): %v", name, err)
		}
		if g.Name() != name {
			t.Errorf("Named(%q) built %q", name, g.Name())
		}
	}
	if _, err := Named("flash-crowd", testUniverse, topology.UUNET(), 1); !errors.Is(err, ErrUnknown) {
		t.Errorf("Named of an unlisted name = %v, want ErrUnknown", err)
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	mk := func() []object.ID {
		w, err := NewHotPages(testUniverse, 0.1, 0.9, 99)
		if err != nil {
			t.Fatal(err)
		}
		rng := Stream(123, 5)
		out := make([]object.ID, 1000)
		for i := range out {
			out[i] = w.Next(3, rng)
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sequence diverged at %d", i)
		}
	}
}

func TestObjectsHomedAtRoundRobin(t *testing.T) {
	u := object.Universe{Count: 10, SizeBytes: 1}
	got := u.ObjectsHomedAt(1, 4)
	want := []object.ID{1, 5, 9}
	if len(got) != len(want) {
		t.Fatalf("ObjectsHomedAt = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ObjectsHomedAt = %v, want %v", got, want)
		}
	}
	if u.HomeNode(7, 4) != 3 {
		t.Fatalf("HomeNode(7,4) = %v, want 3", u.HomeNode(7, 4))
	}
}
