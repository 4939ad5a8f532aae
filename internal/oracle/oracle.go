// Package oracle computes offline near-optimal replica placements against
// which the protocol can be compared — the paper's future-work question:
// "it would be an interesting question ... to see how much worse the
// performance of our protocol is compared to the optimal placement
// obtained by solving the global integer programming optimization
// problem" (§1.1).
//
// The oracle gets everything the protocol does not have: the full demand
// matrix (estimated by sampling the workload generator), the complete
// topology, and central coordination. It greedily places replicas to
// minimize total response byte×hops assuming each request is serviced by
// its closest replica. The objective is monotone submodular in the
// replica set, so lazy greedy evaluation is valid and the result is
// within (1-1/e) of the optimal for the same replica budget.
package oracle

import (
	"container/heap"
	"fmt"

	"radar/internal/object"
	"radar/internal/routing"
	"radar/internal/topology"
	"radar/internal/workload"
)

// Demand is the offered load matrix: Demand[g][x] is the request rate
// (req/s) from gateway g for object x.
type Demand [][]float64

// EstimateDemand samples the workload generator to build the demand
// matrix: samplesPerGateway draws per gateway, scaled to perGatewayRPS.
func EstimateDemand(gen workload.Generator, topo *topology.Topology, u object.Universe,
	perGatewayRPS float64, samplesPerGateway int, seed int64) (Demand, error) {
	if err := u.Validate(); err != nil {
		return nil, err
	}
	if samplesPerGateway <= 0 {
		return nil, fmt.Errorf("oracle: samplesPerGateway %d must be positive", samplesPerGateway)
	}
	if perGatewayRPS <= 0 {
		return nil, fmt.Errorf("oracle: perGatewayRPS %v must be positive", perGatewayRPS)
	}
	n := topo.NumNodes()
	d := make(Demand, n)
	for g := 0; g < n; g++ {
		rng := workload.Stream(seed, 0x0AC1E<<8|uint64(g))
		row := make([]float64, u.Count)
		for i := 0; i < samplesPerGateway; i++ {
			row[gen.Next(topology.NodeID(g), rng)]++
		}
		scale := perGatewayRPS / float64(samplesPerGateway)
		for x := range row {
			row[x] *= scale
		}
		d[g] = row
	}
	return d, nil
}

// Placement maps each object to its replica locations.
type Placement [][]topology.NodeID

// candidate is a heap entry for lazy greedy evaluation.
type candidate struct {
	obj   object.ID
	node  topology.NodeID
	gain  float64 // byte-hops/s saved, possibly stale
	epoch int     // object epoch when gain was computed
}

type candHeap []candidate

func (h candHeap) Len() int           { return len(h) }
func (h candHeap) Less(i, j int) bool { return h[i].gain > h[j].gain }
func (h candHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *candHeap) Push(x any)        { *h = append(*h, x.(candidate)) }
func (h *candHeap) Pop() any          { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }

// Greedy computes a placement: every object first gets its single best
// location (the demand-weighted 1-median), then extraBudget additional
// replicas are placed by lazy greedy marginal gain. sizeBytes scales the
// objective but not the argmax; it is accepted for cost reporting
// symmetry.
func Greedy(routes *routing.Table, demand Demand, extraBudget int) (Placement, error) {
	n := routes.NumNodes()
	if len(demand) != n {
		return nil, fmt.Errorf("oracle: demand has %d gateways, topology %d", len(demand), n)
	}
	if n == 0 || len(demand[0]) == 0 {
		return nil, fmt.Errorf("oracle: empty demand")
	}
	numObjects := len(demand[0])

	// nearest[x][g] is the distance from gateway g to x's nearest replica.
	nearest := make([][]int16, numObjects)
	placement := make(Placement, numObjects)

	// Base placement: 1-median per object.
	for x := 0; x < numObjects; x++ {
		bestNode, bestCost := topology.NodeID(0), -1.0
		for v := 0; v < n; v++ {
			cost := 0.0
			for g := 0; g < n; g++ {
				if w := demand[g][x]; w > 0 {
					cost += w * float64(routes.Distance(topology.NodeID(g), topology.NodeID(v)))
				}
			}
			if bestCost < 0 || cost < bestCost {
				bestNode, bestCost = topology.NodeID(v), cost
			}
		}
		placement[x] = []topology.NodeID{bestNode}
		row := make([]int16, n)
		for g := 0; g < n; g++ {
			row[g] = int16(routes.Distance(topology.NodeID(g), bestNode))
		}
		nearest[x] = row
	}
	if extraBudget <= 0 {
		return placement, nil
	}

	gain := func(x int, v topology.NodeID) float64 {
		total := 0.0
		for g := 0; g < n; g++ {
			if w := demand[g][x]; w > 0 {
				if d := int16(routes.Distance(topology.NodeID(g), v)); d < nearest[x][g] {
					total += w * float64(nearest[x][g]-d)
				}
			}
		}
		return total
	}

	epochs := make([]int, numObjects)
	h := make(candHeap, 0, numObjects*n)
	for x := 0; x < numObjects; x++ {
		for v := 0; v < n; v++ {
			node := topology.NodeID(v)
			if node == placement[x][0] {
				continue
			}
			if g := gain(x, node); g > 0 {
				h = append(h, candidate{obj: object.ID(x), node: node, gain: g})
			}
		}
	}
	heap.Init(&h)

	placed := 0
	for placed < extraBudget && h.Len() > 0 {
		top := heap.Pop(&h).(candidate)
		x := int(top.obj)
		if top.epoch != epochs[x] {
			// Stale: recompute and push back (lazy greedy).
			if g := gain(x, top.node); g > 0 {
				heap.Push(&h, candidate{obj: top.obj, node: top.node, gain: g, epoch: epochs[x]})
			}
			continue
		}
		if top.gain <= 0 {
			break
		}
		placement[x] = append(placement[x], top.node)
		for g := 0; g < n; g++ {
			if d := int16(routes.Distance(topology.NodeID(g), top.node)); d < nearest[x][g] {
				nearest[x][g] = d
			}
		}
		epochs[x]++
		placed++
	}
	return placement, nil
}

// TotalReplicas returns the number of replicas in a placement.
func TotalReplicas(p Placement) int {
	total := 0
	for _, r := range p {
		total += len(r)
	}
	return total
}
