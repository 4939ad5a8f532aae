package routing

import (
	"testing"
	"testing/quick"

	"radar/internal/topology"
	"radar/internal/workload"
)

func TestLineDistances(t *testing.T) {
	tab := New(topology.Line(5))
	for a := 0; a < 5; a++ {
		for b := 0; b < 5; b++ {
			want := a - b
			if want < 0 {
				want = -want
			}
			if got := tab.Distance(topology.NodeID(a), topology.NodeID(b)); got != want {
				t.Errorf("Distance(%d,%d) = %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestRingDistances(t *testing.T) {
	n := 8
	tab := New(topology.Ring(n))
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			d := (b - a + n) % n
			if d > n/2 {
				d = n - d
			}
			if got := tab.Distance(topology.NodeID(a), topology.NodeID(b)); got != d {
				t.Errorf("Distance(%d,%d) = %d, want %d", a, b, got, d)
			}
		}
	}
}

func TestPathEndpointsAndAdjacency(t *testing.T) {
	topo := topology.UUNET()
	tab := New(topo)
	if err := tab.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every consecutive pair on every path must be a link.
	isLink := func(a, b topology.NodeID) bool {
		for _, w := range topo.Neighbors(a) {
			if w == b {
				return true
			}
		}
		return false
	}
	for s := 0; s < topo.NumNodes(); s++ {
		for d := 0; d < topo.NumNodes(); d++ {
			p := tab.Path(topology.NodeID(s), topology.NodeID(d))
			for i := 1; i < len(p); i++ {
				if !isLink(p[i-1], p[i]) {
					t.Fatalf("path %d->%d uses non-link %v-%v", s, d, p[i-1], p[i])
				}
			}
		}
	}
}

func TestDistanceSymmetry(t *testing.T) {
	tab := New(topology.UUNET())
	for a := 0; a < tab.NumNodes(); a++ {
		for b := 0; b < tab.NumNodes(); b++ {
			if tab.Distance(topology.NodeID(a), topology.NodeID(b)) !=
				tab.Distance(topology.NodeID(b), topology.NodeID(a)) {
				t.Fatalf("asymmetric distance between %d and %d", a, b)
			}
		}
	}
}

// TestTriangleInequality checks dist(a,c) <= dist(a,b) + dist(b,c) for all
// triples on the UUNET backbone — a shortest-path invariant.
func TestTriangleInequality(t *testing.T) {
	tab := New(topology.UUNET())
	n := tab.NumNodes()
	rng := workload.Stream(7, 0)
	for i := 0; i < 20000; i++ {
		a := topology.NodeID(rng.Intn(n))
		b := topology.NodeID(rng.Intn(n))
		c := topology.NodeID(rng.Intn(n))
		if tab.Distance(a, c) > tab.Distance(a, b)+tab.Distance(b, c) {
			t.Fatalf("triangle inequality violated for (%d,%d,%d)", a, b, c)
		}
	}
}

// TestPathPrefixOptimality checks that every prefix of a chosen path is
// itself a shortest path (BFS tree property).
func TestPathPrefixOptimality(t *testing.T) {
	tab := New(topology.UUNET())
	n := tab.NumNodes()
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			p := tab.Path(topology.NodeID(s), topology.NodeID(d))
			for i, v := range p {
				if tab.Distance(topology.NodeID(s), v) != i {
					t.Fatalf("path %d->%d: node %v at index %d but dist %d",
						s, d, v, i, tab.Distance(topology.NodeID(s), v))
				}
			}
		}
	}
}

func TestDeterministicPaths(t *testing.T) {
	a := New(topology.UUNET())
	b := New(topology.UUNET())
	for s := 0; s < a.NumNodes(); s++ {
		for d := 0; d < a.NumNodes(); d++ {
			pa := a.Path(topology.NodeID(s), topology.NodeID(d))
			pb := b.Path(topology.NodeID(s), topology.NodeID(d))
			if len(pa) != len(pb) {
				t.Fatalf("path %d->%d length differs across constructions", s, d)
			}
			for i := range pa {
				if pa[i] != pb[i] {
					t.Fatalf("path %d->%d differs across constructions", s, d)
				}
			}
		}
	}
}

func TestPreferencePathOrientation(t *testing.T) {
	topo := topology.UUNET()
	tab := New(topo)
	host, _ := topo.Lookup("Tokyo")
	gw, _ := topo.Lookup("London")
	p := tab.PreferencePath(host, gw)
	if p[0] != host || p[len(p)-1] != gw {
		t.Fatalf("preference path must run host -> gateway, got %v", p)
	}
}

func TestMinAvgDistanceNodeIsArgmin(t *testing.T) {
	tab := New(topology.UUNET())
	best := tab.MinAvgDistanceNode()
	bestAvg := tab.AvgDistance(best)
	for s := 0; s < tab.NumNodes(); s++ {
		if avg := tab.AvgDistance(topology.NodeID(s)); avg < bestAvg {
			t.Fatalf("node %d has avg %v < chosen %v", s, avg, bestAvg)
		}
	}
}

func TestMinAvgDistanceNodeStar(t *testing.T) {
	tab := New(topology.Star(9))
	if got := tab.MinAvgDistanceNode(); got != 0 {
		t.Fatalf("star redirector node = %d, want center 0", got)
	}
}

func TestDiameterUUNET(t *testing.T) {
	tab := New(topology.UUNET())
	d := tab.Diameter()
	// The reconstructed backbone should look like a late-90s global ISP:
	// chain-structured regional backbones give real locality and long
	// intercontinental paths (e.g. Melbourne to Stockholm).
	if d < 8 || d > 20 {
		t.Fatalf("UUNET diameter = %d, want a plausible 8..20", d)
	}
}

func TestSortByDistanceDesc(t *testing.T) {
	topo := topology.Line(6)
	tab := New(topo)
	ids := []topology.NodeID{1, 5, 3, 0, 4}
	tab.SortByDistanceDesc(0, ids)
	want := []topology.NodeID{5, 4, 3, 1, 0}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("sorted = %v, want %v", ids, want)
		}
	}
}

func TestSortByDistanceDescTieBreak(t *testing.T) {
	// On a star from the center, all leaves are at distance 1; ties must
	// order by ascending ID.
	tab := New(topology.Star(5))
	ids := []topology.NodeID{4, 2, 3, 1}
	tab.SortByDistanceDesc(0, ids)
	want := []topology.NodeID{1, 2, 3, 4}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("sorted = %v, want %v (ascending ID among ties)", ids, want)
		}
	}
}

// TestSortByDistanceDescProperty cross-checks the insertion sort against
// the ordering contract on random inputs.
func TestSortByDistanceDescProperty(t *testing.T) {
	topo := topology.UUNET()
	tab := New(topo)
	n := topo.NumNodes()
	f := func(seed int64, srcRaw uint8, count uint8) bool {
		rng := workload.Stream(seed, 0)
		src := topology.NodeID(int(srcRaw) % n)
		ids := make([]topology.NodeID, int(count)%20+2)
		for i := range ids {
			ids[i] = topology.NodeID(rng.Intn(n))
		}
		tab.SortByDistanceDesc(src, ids)
		for i := 1; i < len(ids); i++ {
			da, db := tab.Distance(src, ids[i-1]), tab.Distance(src, ids[i])
			if da < db {
				return false
			}
			if da == db && ids[i-1] > ids[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkNewUUNET(b *testing.B) {
	topo := topology.UUNET()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		New(topo)
	}
}

func BenchmarkPathLookup(b *testing.B) {
	tab := New(topology.UUNET())
	n := tab.NumNodes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tab.Path(topology.NodeID(i%n), topology.NodeID((i*7)%n))
	}
}

// BenchmarkDistanceLookup measures the per-request distance query — a
// single indexed load into the flattened all-pairs table.
func BenchmarkDistanceLookup(b *testing.B) {
	tab := New(topology.UUNET())
	n := tab.NumNodes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tab.Distance(topology.NodeID(i%n), topology.NodeID((i*7)%n))
	}
}

// BenchmarkDistancesFrom measures the row accessor the redirector's
// single-pass replica choice is built on.
func BenchmarkDistancesFrom(b *testing.B) {
	tab := New(topology.UUNET())
	n := tab.NumNodes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tab.DistancesFrom(topology.NodeID(i % n))
	}
}
