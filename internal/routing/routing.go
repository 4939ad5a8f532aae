// Package routing computes the path and distance information the protocol
// extracts from router databases in a real deployment (paper §2).
//
// Paths are shortest paths by hop count over the backbone topology, with
// deterministic tie-breaking: a breadth-first tree is grown from every
// source visiting neighbors in ascending node-ID order, so "when there are
// equidistant paths between nodes i and j, one path is chosen for all
// requests from i to j" (paper §6.1). The path from a host to a gateway is
// the request's preference path: the sequence of hosts co-located with the
// routers a response passes on its way out of the platform.
//
// All-pairs distances and materialized paths are precomputed at
// construction into contiguous backing arrays, so every per-request lookup
// (Distance, Path, PreferencePath, DistancesFrom) is a bounds check and an
// indexed load — no allocation, no pointer chasing beyond a single row
// slice.
package routing

import (
	"fmt"
	"slices"

	"radar/internal/topology"
)

// Table holds precomputed all-pairs routes for one topology.
//
// Immutability contract: a Table is frozen when New returns. No method —
// including SortByDistanceDesc, which permutes only the caller's slice —
// mutates the Table afterwards, and no state is computed lazily, so a
// single Table may be shared freely across goroutines and concurrent
// simulation runs without synchronization (internal/substrate relies on
// this). Accessors that return slices (DistancesFrom, Path,
// PreferencePath) hand out shared backing storage; callers must treat it
// as read-only.
type Table struct {
	topo *topology.Topology
	n    int
	// dist[s*n+d] is the hop count of the chosen path s -> d, in one
	// contiguous int32 block for cache density (the redirector scans
	// distance rows on every request).
	dist []int32
	// paths[s*n+d] is the node sequence s, ..., d (inclusive) of the
	// chosen path, all rows sliced out of one shared backing array —
	// callers must not mutate.
	paths [][]topology.NodeID
	// order[s*n:(s+1)*n] lists the BFS tree rooted at s farthest first, s
	// last; parent[s*n+d] is d's predecessor on it, parent[s*n+s] == s.
	order, parent []int32

	// Aggregates precomputed at construction so the accessors below are
	// O(1) reads on the frozen table rather than lazy O(n²) scans.
	avgDist    []float64 // avgDist[s] is the mean hop distance from s
	minAvgNode topology.NodeID
	diameter   int
}

// New computes routes for topo. Cost is O(V·(V+E)) time and O(V²·diameter)
// memory for materialized paths — trivial at backbone scale (53 nodes).
func New(topo *topology.Topology) *Table {
	n := topo.NumNodes()
	t := &Table{
		topo:   topo,
		n:      n,
		dist:   make([]int32, n*n),
		paths:  make([][]topology.NodeID, n*n),
		order:  make([]int32, n*n),
		parent: make([]int32, n*n),
	}
	size := n * n // every path holds its hop count plus one nodes
	for s := 0; s < n; s++ {
		t.bfs(topology.NodeID(s))
		for _, d := range t.dist[s*n : (s+1)*n] {
			size += int(d)
		}
	}

	// Materialize every path into one exactly-sized arena, source rows in
	// order, each row's paths in destination order, each path backwards
	// from its destination along its source's parent row.
	arena := make([]topology.NodeID, size)
	for sd := range t.paths {
		hops, row := int(t.dist[sd]), t.parent[sd-sd%n:][:n]
		seg := arena[: hops+1 : hops+1]
		for i, v := hops, int32(sd%n); i >= 0; i, v = i-1, row[v] {
			seg[i] = topology.NodeID(v)
		}
		t.paths[sd], arena = seg, arena[hops+1:]
	}

	t.freezeAggregates()
	return t
}

// bfs grows a breadth-first tree from src, visiting neighbors in ascending
// ID order so that the parent of every node is the smallest-ID predecessor
// at minimal distance discovered first — a deterministic tie-break. It
// fills src's rows of dist, parent and order, the BFS queue reversed; the
// topology is connected, so the queue reaches every node.
func (t *Table) bfs(src topology.NodeID) {
	row := int(src) * t.n
	dist, parent, order := t.dist[row:row+t.n], t.parent[row:row+t.n], t.order[row:row+t.n]
	for i := range dist {
		dist[i] = -1
	}
	dist[src], parent[src], order[0] = 0, int32(src), int32(src)
	for head, tail := 0, 1; head < tail; head++ {
		v := topology.NodeID(order[head])
		for _, w := range t.topo.Neighbors(v) {
			if dist[w] == -1 {
				dist[w], parent[w], order[tail] = dist[v]+1, int32(v), int32(w)
				tail++
			}
		}
	}
	slices.Reverse(order)
}

// freezeAggregates precomputes the whole-table summaries (average
// distances, min-average node, diameter) so their accessors never touch —
// let alone lazily populate — mutable state after construction.
func (t *Table) freezeAggregates() {
	t.avgDist = make([]float64, t.n)
	maxD := int32(0)
	for s := 0; s < t.n; s++ {
		total := 0
		for _, d := range t.dist[s*t.n : (s+1)*t.n] {
			total += int(d)
			if d > maxD {
				maxD = d
			}
		}
		if t.n > 1 {
			t.avgDist[s] = float64(total) / float64(t.n-1)
		}
	}
	t.diameter = int(maxD)
	t.minAvgNode = 0
	for s := 1; s < t.n; s++ {
		if t.avgDist[s] < t.avgDist[t.minAvgNode] {
			t.minAvgNode = topology.NodeID(s)
		}
	}
}

// Distance returns the hop count between a and b. Unit link costs make
// distance symmetric even though chosen paths need not be.
func (t *Table) Distance(a, b topology.NodeID) int {
	return int(t.dist[int(a)*t.n+int(b)])
}

// DistancesFrom returns the distance row of s: a slice of length NumNodes
// where element d is the hop count s -> d. The slice is shared backing
// storage; callers must not modify it. Hot loops that compare distances to
// many destinations should take the row once instead of calling Distance
// per destination.
func (t *Table) DistancesFrom(s topology.NodeID) []int32 {
	return t.dist[int(s)*t.n : (int(s)+1)*t.n]
}

// Path returns the chosen path from s to d as the node sequence s, ..., d.
// The returned slice is shared; callers must not modify it.
func (t *Table) Path(s, d topology.NodeID) []topology.NodeID {
	return t.paths[int(s)*t.n+int(d)]
}

// PreferencePath returns the preference path of a request that entered at
// gateway g and is serviced by host s: the hosts co-located with the
// routers on the response route s -> g, in route order (paper §2). The
// first element is s and the last is g.
func (t *Table) PreferencePath(s, g topology.NodeID) []topology.NodeID {
	return t.paths[int(s)*t.n+int(g)]
}

// Tree returns the BFS tree rooted at s that every path from s runs down:
// its nodes farthest first, s last, and each node's parent (s's own is s).
// Both rows are shared; callers must not modify them.
func (t *Table) Tree(s topology.NodeID) (order, parent []int32) {
	row := int(s) * t.n
	return t.order[row : row+t.n], t.parent[row : row+t.n]
}

// NumNodes returns the node count of the underlying topology.
func (t *Table) NumNodes() int { return t.n }

// AvgDistance returns the mean hop distance from s to every other node.
func (t *Table) AvgDistance(s topology.NodeID) float64 {
	return t.avgDist[int(s)]
}

// MinAvgDistanceNode returns the node whose average hop distance to all
// other nodes is minimal, breaking ties by smallest ID. The paper
// co-locates the redirector with this node (§6.1).
func (t *Table) MinAvgDistanceNode() topology.NodeID { return t.minAvgNode }

// Diameter returns the maximum hop distance between any node pair.
func (t *Table) Diameter() int { return t.diameter }

// SortByDistanceDesc orders ids in place by decreasing distance from s,
// breaking ties by ascending node ID. The replica placement algorithm
// examines candidates "in the decreasing order of distance" (paper Fig. 3);
// the deterministic tie-break keeps simulations reproducible. Only the
// caller's slice is written; the Table itself is read-only here, so
// concurrent calls against a shared Table are safe as long as each caller
// passes its own slice.
func (t *Table) SortByDistanceDesc(s topology.NodeID, ids []topology.NodeID) {
	d := t.DistancesFrom(s)
	// Insertion sort: candidate lists are short (bounded by path lengths).
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0; j-- {
			a, b := ids[j-1], ids[j]
			if d[a] > d[b] || (d[a] == d[b] && a <= b) {
				break
			}
			ids[j-1], ids[j] = ids[j], ids[j-1]
		}
	}
}

// Validate checks internal consistency; used by tests and cmd/radar-topology.
func (t *Table) Validate() error {
	for s := 0; s < t.n; s++ {
		for d := 0; d < t.n; d++ {
			if t.dist[s*t.n+d] < 0 {
				return fmt.Errorf("routing: no path %d -> %d", s, d)
			}
			p := t.paths[s*t.n+d]
			if len(p) != int(t.dist[s*t.n+d])+1 {
				return fmt.Errorf("routing: path %d -> %d has %d nodes, want %d", s, d, len(p), t.dist[s*t.n+d]+1)
			}
			if p[0] != topology.NodeID(s) || p[len(p)-1] != topology.NodeID(d) {
				return fmt.Errorf("routing: path %d -> %d has wrong endpoints", s, d)
			}
		}
	}
	return nil
}
