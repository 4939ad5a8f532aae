package routing

import (
	"sync"
	"testing"

	"radar/internal/topology"
)

// buildTopologies returns the graph shapes TestNewValidates sweeps: the
// canonical backbone plus degenerate and tie-break-heavy synthetic shapes.
func buildTopologies(t *testing.T) map[string]*topology.Topology {
	t.Helper()
	single, err := topology.New([]topology.Node{{Name: "only", Region: topology.WesternNA}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*topology.Topology{
		"uunet":  topology.UUNET(),
		"line5":  topology.Line(5),
		"ring8":  topology.Ring(8),
		"line2":  topology.Line(2),
		"single": single,
	}
}

// TestNewValidates: every shape's table has a path for every pair, each
// with its hop count plus one nodes and the right endpoints.
func TestNewValidates(t *testing.T) {
	for name, topo := range buildTopologies(t) {
		if err := New(topo).Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestTreeIsThePaths: on every shape, each source's tree order lists every
// node once, at non-increasing distance, the source last; and every path
// from the source is its destination's chain of tree parents, reversed.
func TestTreeIsThePaths(t *testing.T) {
	for name, topo := range buildTopologies(t) {
		tab := New(topo)
		n := topo.NumNodes()
		for s := 0; s < n; s++ {
			src := topology.NodeID(s)
			order, parent := tab.Tree(src)
			seen := make([]bool, n)
			for i, v := range order {
				if seen[v] {
					t.Fatalf("%s: source %d lists node %d twice", name, s, v)
				}
				seen[v] = true
				if i > 0 && tab.Distance(src, topology.NodeID(v)) > tab.Distance(src, topology.NodeID(order[i-1])) {
					t.Fatalf("%s: source %d lists node %d after a nearer one", name, s, v)
				}
			}
			if len(order) != n || order[n-1] != int32(s) || parent[s] != int32(s) {
				t.Fatalf("%s: source %d: order %v, own parent %d", name, s, order, parent[s])
			}
			for d := 0; d < n; d++ {
				path := tab.PreferencePath(src, topology.NodeID(d))
				v := int32(d)
				for i := len(path) - 1; i >= 0; i-- {
					if int32(path[i]) != v {
						t.Fatalf("%s: path %d -> %d is %v, not the tree's", name, s, d, path)
					}
					v = parent[v]
				}
			}
		}
	}
}

// TestSharedTableConcurrentReads hammers one shared Table from many
// goroutines through every read-path accessor the simulator uses —
// Distance, DistancesFrom, Path, PreferencePath, Tree, AvgDistance,
// MinAvgDistanceNode, Diameter and SortByDistanceDesc (own slice per
// goroutine) — locking in the immutability contract the substrate cache
// relies on. Run it with -race to detect any accessor that writes Table
// state.
func TestSharedTableConcurrentReads(t *testing.T) {
	topo := topology.UUNET()
	tab := New(topo)
	n := tab.NumNodes()

	want := make([]int, n*n)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			want[a*n+b] = tab.Distance(topology.NodeID(a), topology.NodeID(b))
		}
	}

	const goroutines = 16
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ids := make([]topology.NodeID, n)
			for iter := 0; iter < 50; iter++ {
				s := topology.NodeID((g + iter) % n)
				row := tab.DistancesFrom(s)
				for d := 0; d < n; d++ {
					if int(row[d]) != want[int(s)*n+d] {
						t.Errorf("goroutine %d: DistancesFrom(%d)[%d] = %d, want %d", g, s, d, row[d], want[int(s)*n+d])
						return
					}
					if got := tab.Distance(s, topology.NodeID(d)); got != want[int(s)*n+d] {
						t.Errorf("goroutine %d: Distance(%d,%d) = %d, want %d", g, s, d, got, want[int(s)*n+d])
						return
					}
					p := tab.Path(s, topology.NodeID(d))
					if len(p) != want[int(s)*n+d]+1 || p[0] != s || p[len(p)-1] != topology.NodeID(d) {
						t.Errorf("goroutine %d: Path(%d,%d) malformed", g, s, d)
						return
					}
				}
				_ = tab.PreferencePath(s, topology.NodeID((int(s)+1)%n))
				_, _ = tab.Tree(s)
				_ = tab.AvgDistance(s)
				_ = tab.MinAvgDistanceNode()
				_ = tab.Diameter()
				for i := range ids {
					ids[i] = topology.NodeID((i + iter) % n)
				}
				tab.SortByDistanceDesc(s, ids)
				for i := 1; i < len(ids); i++ {
					da, db := want[int(s)*n+int(ids[i-1])], want[int(s)*n+int(ids[i])]
					if da < db || (da == db && ids[i-1] > ids[i]) {
						t.Errorf("goroutine %d: SortByDistanceDesc out of order at %d", g, i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
