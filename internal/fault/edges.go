package fault

import (
	"math/rand"
	"time"

	"radar/internal/topology"
	"radar/internal/workload"
)

// TopoEdges lists a backbone's undirected edges with first endpoint <
// second, in deterministic node order — the element order stochastic link
// cycles draw in, and the edge universe Spec.Timeline validates scripted
// link events against.
func TopoEdges(t *topology.Topology) [][2]topology.NodeID {
	var edges [][2]topology.NodeID
	n := t.NumNodes()
	for i := 0; i < n; i++ {
		a := topology.NodeID(i)
		for _, b := range t.Neighbors(a) {
			if b > a {
				edges = append(edges, [2]topology.NodeID{a, b})
			}
		}
	}
	return edges
}

// Expand is the timeline of a run over topo's backbone: Timeline with the
// stochastic clauses drawn from seed's reserved fault stream, less the
// events past the horizon (a permanent failure's recovery never fires).
// The simulator and the live chaos plan both expand through it, so a
// schedule means the same crashes at the same instants in either world.
func (s *Spec) Expand(topo *topology.Topology, horizon time.Duration, seed int64) ([]Event, error) {
	var rng *rand.Rand
	if s.HostMTBF > 0 || s.LinkMTBF > 0 {
		rng = workload.Stream(seed, workload.FaultStream)
	}
	var edges [][2]topology.NodeID
	if s.HasLinkFaults() {
		edges = TopoEdges(topo)
	}
	timeline, err := s.Timeline(topo.NumNodes(), edges, horizon, rng)
	if err != nil {
		return nil, err
	}
	n := 0
	for _, e := range timeline {
		if e.At <= horizon {
			timeline[n] = e
			n++
		}
	}
	return timeline[:n], nil
}
