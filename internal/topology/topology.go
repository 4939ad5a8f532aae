// Package topology models the hosting platform's backbone: a set of nodes
// (each a router co-located with a hosting server, per the paper's system
// model) connected by wide-area links.
//
// The canonical instance, returned by UUNET, is a 53-node reconstruction of
// the 1998 UUNET backbone used as the paper's testbed. The original map
// (paper reference [34]) is no longer available; the reconstruction is built
// from UUNET's published POP cities of that era and preserves the properties
// the evaluation depends on: four regions (Western North America, Eastern
// North America, Europe, Pacific Rim & Australia), hub-and-spoke regional
// structure, and historical transoceanic link placement.
package topology

import (
	"errors"
	"fmt"
	"sort"
)

// NodeID identifies a backbone node. IDs are dense, starting at 0, and are
// used as indices throughout the simulator.
type NodeID int

// Region is the geographic region of a node, used by the regional workload.
type Region int

// Regions of the reconstructed backbone. The paper divides nodes into
// exactly these four.
const (
	WesternNA Region = iota + 1
	EasternNA
	Europe
	PacificAustralia
)

// String returns the human-readable region name.
func (r Region) String() string {
	switch r {
	case WesternNA:
		return "Western North America"
	case EasternNA:
		return "Eastern North America"
	case Europe:
		return "Europe"
	case PacificAustralia:
		return "Pacific & Australia"
	default:
		return fmt.Sprintf("Region(%d)", int(r))
	}
}

// Regions lists all regions in canonical order.
func Regions() []Region {
	return []Region{WesternNA, EasternNA, Europe, PacificAustralia}
}

// Node is a backbone node: a router plus a co-located hosting server.
type Node struct {
	ID     NodeID
	Name   string
	Region Region
}

// Topology is an undirected graph of backbone nodes. All links have unit
// hop cost; bandwidth and delay are modeled by package simnet.
type Topology struct {
	nodes []Node
	adj   [][]NodeID // sorted neighbor lists, indexed by NodeID
}

// Errors returned by New.
var (
	ErrNoNodes       = errors.New("topology: no nodes")
	ErrBadEdge       = errors.New("topology: edge references unknown node")
	ErrSelfLoop      = errors.New("topology: self-loop")
	ErrDuplicateEdge = errors.New("topology: duplicate edge")
	ErrDisconnected  = errors.New("topology: graph is not connected")
)

// Edge is an undirected link between two nodes, identified by name.
type Edge struct {
	A, B string
}

// New builds a validated topology from a node list and an edge list.
// Node IDs are assigned in list order. The graph must be connected,
// self-loop-free and duplicate-free.
func New(nodes []Node, edges []Edge) (*Topology, error) {
	if len(nodes) == 0 {
		return nil, ErrNoNodes
	}
	byName := make(map[string]NodeID, len(nodes))
	ns := make([]Node, len(nodes))
	for i, n := range nodes {
		n.ID = NodeID(i)
		if _, dup := byName[n.Name]; dup {
			return nil, fmt.Errorf("topology: duplicate node name %q", n.Name)
		}
		byName[n.Name] = n.ID
		ns[i] = n
	}
	adj := make([][]NodeID, len(ns))
	seen := make(map[[2]NodeID]bool, len(edges))
	for _, e := range edges {
		a, okA := byName[e.A]
		b, okB := byName[e.B]
		if !okA || !okB {
			return nil, fmt.Errorf("%w: %q - %q", ErrBadEdge, e.A, e.B)
		}
		if a == b {
			return nil, fmt.Errorf("%w: %q", ErrSelfLoop, e.A)
		}
		key := [2]NodeID{min(a, b), max(a, b)}
		if seen[key] {
			return nil, fmt.Errorf("%w: %q - %q", ErrDuplicateEdge, e.A, e.B)
		}
		seen[key] = true
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	for i := range adj {
		sort.Slice(adj[i], func(x, y int) bool { return adj[i][x] < adj[i][y] })
	}
	t := &Topology{nodes: ns, adj: adj}
	if !t.connected() {
		return nil, ErrDisconnected
	}
	return t, nil
}

// connected reports whether every node is reachable from node 0.
func (t *Topology) connected() bool {
	visited := make([]bool, len(t.nodes))
	queue := []NodeID{0}
	visited[0] = true
	count := 1
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range t.adj[v] {
			if !visited[w] {
				visited[w] = true
				count++
				queue = append(queue, w)
			}
		}
	}
	return count == len(t.nodes)
}

// NumNodes returns the number of backbone nodes.
func (t *Topology) NumNodes() int { return len(t.nodes) }

// Node returns the node with the given ID.
func (t *Topology) Node(id NodeID) Node { return t.nodes[int(id)] }

// Nodes returns a copy of the node list in ID order.
func (t *Topology) Nodes() []Node {
	out := make([]Node, len(t.nodes))
	copy(out, t.nodes)
	return out
}

// Neighbors returns the sorted neighbor list of id. The returned slice is
// shared; callers must not modify it.
func (t *Topology) Neighbors(id NodeID) []NodeID { return t.adj[int(id)] }

// NumEdges returns the number of undirected links.
func (t *Topology) NumEdges() int {
	total := 0
	for _, a := range t.adj {
		total += len(a)
	}
	return total / 2
}

// NodesInRegion returns the IDs of all nodes in region r, in ID order.
func (t *Topology) NodesInRegion(r Region) []NodeID {
	var out []NodeID
	for _, n := range t.nodes {
		if n.Region == r {
			out = append(out, n.ID)
		}
	}
	return out
}

// Lookup returns the ID of the node with the given name.
func (t *Topology) Lookup(name string) (NodeID, bool) {
	for _, n := range t.nodes {
		if n.Name == name {
			return n.ID, true
		}
	}
	return 0, false
}
