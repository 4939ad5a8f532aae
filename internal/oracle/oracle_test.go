package oracle

import (
	"math"
	"testing"

	"radar/internal/object"
	"radar/internal/routing"
	"radar/internal/topology"
	"radar/internal/workload"
)

func TestEstimateDemandShapeAndMass(t *testing.T) {
	topo := topology.Line(5)
	u := object.Universe{Count: 50, SizeBytes: 1}
	gen, err := workload.NewUniform(u)
	if err != nil {
		t.Fatal(err)
	}
	d, err := EstimateDemand(gen, topo, u, 40, 5000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 5 || len(d[0]) != 50 {
		t.Fatalf("demand shape = %dx%d, want 5x50", len(d), len(d[0]))
	}
	for g := range d {
		total := 0.0
		for _, w := range d[g] {
			total += w
		}
		if math.Abs(total-40) > 1e-9 {
			t.Fatalf("gateway %d total rate %v, want 40", g, total)
		}
	}
}

func TestEstimateDemandValidation(t *testing.T) {
	topo := topology.Line(3)
	u := object.Universe{Count: 10, SizeBytes: 1}
	gen, _ := workload.NewUniform(u)
	if _, err := EstimateDemand(gen, topo, u, 40, 0, 1); err == nil {
		t.Error("zero samples accepted")
	}
	if _, err := EstimateDemand(gen, topo, u, 0, 100, 1); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := EstimateDemand(gen, topo, object.Universe{}, 40, 100, 1); err == nil {
		t.Error("empty universe accepted")
	}
}

// TestGreedyBasePlacementIsOneMedian: with no extra budget, each object
// sits at its demand-weighted 1-median.
func TestGreedyBasePlacementIsOneMedian(t *testing.T) {
	topo := topology.Line(5)
	routes := routing.New(topo)
	// One object; all demand from gateway 4: the 1-median is node 4.
	demand := make(Demand, 5)
	for g := range demand {
		demand[g] = []float64{0}
	}
	demand[4][0] = 10
	p, err := Greedy(routes, demand, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(p[0]) != 1 || p[0][0] != 4 {
		t.Fatalf("placement = %v, want [4]", p[0])
	}
	if got := Cost(routes, demand, p, 1); got != 0 {
		t.Fatalf("cost = %v, want 0 (replica at the demand source)", got)
	}
}

func TestGreedySpendsBudgetWhereItPays(t *testing.T) {
	topo := topology.Line(7)
	routes := routing.New(topo)
	// Object 0: demand from both ends; object 1: demand from node 3 only.
	demand := make(Demand, 7)
	for g := range demand {
		demand[g] = []float64{0, 0}
	}
	demand[0][0] = 10
	demand[6][0] = 10
	demand[3][1] = 10
	p, err := Greedy(routes, demand, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The single extra replica must go to object 0 (object 1 already has
	// zero cost at its median), splitting the line's ends.
	if len(p[0]) != 2 {
		t.Fatalf("object 0 replicas = %v, want 2", p[0])
	}
	if len(p[1]) != 1 || p[1][0] != 3 {
		t.Fatalf("object 1 placement = %v, want [3]", p[1])
	}
	if got := Cost(routes, demand, p, 1); got != 0 {
		t.Fatalf("cost = %v, want 0 (replicas at both ends)", got)
	}
}

// TestGreedyMonotone: cost never increases with budget, and each
// increment is no better than the previous (diminishing returns of a
// submodular objective under greedy).
func TestGreedyMonotone(t *testing.T) {
	topo := topology.UUNET()
	routes := routing.New(topo)
	u := object.Universe{Count: 100, SizeBytes: 12 << 10}
	gen, err := workload.NewZipf(u)
	if err != nil {
		t.Fatal(err)
	}
	demand, err := EstimateDemand(gen, topo, u, 40, 2000, 7)
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(1)
	prevDrop := math.Inf(1)
	// Equal budget increments so the per-increment gains are comparable.
	for _, budget := range []int{0, 20, 40, 60, 80} {
		p, err := Greedy(routes, demand, budget)
		if err != nil {
			t.Fatal(err)
		}
		c := Cost(routes, demand, p, u.SizeBytes)
		if c > prev+1e-6 {
			t.Fatalf("budget %d cost %v exceeds smaller-budget cost %v", budget, c, prev)
		}
		if !math.IsInf(prev, 1) {
			drop := prev - c
			if drop > prevDrop+1e-6 {
				t.Fatalf("budget %d gain %v exceeds earlier gain %v (not diminishing)", budget, drop, prevDrop)
			}
			prevDrop = drop
		}
		if got := TotalReplicas(p); got != 100+budget && budget > 0 {
			// Greedy may stop early only when no positive gain remains.
			if got > 100+budget {
				t.Fatalf("budget %d placed %d replicas", budget, got)
			}
		}
		prev = c
	}
}

func TestGreedyValidation(t *testing.T) {
	routes := routing.New(topology.Line(3))
	if _, err := Greedy(routes, Demand{{1}}, 0); err == nil {
		t.Error("mismatched demand accepted")
	}
	if _, err := Greedy(routes, Demand{{}, {}, {}}, 0); err == nil {
		t.Error("empty demand accepted")
	}
}

// TestGreedyBeatsRoundRobin: for a zipf workload on the backbone, the
// oracle's base placement already beats the paper's round-robin initial
// assignment, and extra budget widens the gap.
func TestGreedyBeatsRoundRobin(t *testing.T) {
	topo := topology.UUNET()
	routes := routing.New(topo)
	u := object.Universe{Count: 200, SizeBytes: 12 << 10}
	gen, err := workload.NewZipf(u)
	if err != nil {
		t.Fatal(err)
	}
	demand, err := EstimateDemand(gen, topo, u, 40, 2000, 7)
	if err != nil {
		t.Fatal(err)
	}
	roundRobin := make(Placement, u.Count)
	for i := range roundRobin {
		roundRobin[i] = []topology.NodeID{u.HomeNode(object.ID(i), topo.NumNodes())}
	}
	rrCost := Cost(routes, demand, roundRobin, u.SizeBytes)
	base, err := Greedy(routes, demand, 0)
	if err != nil {
		t.Fatal(err)
	}
	baseCost := Cost(routes, demand, base, u.SizeBytes)
	if baseCost >= rrCost {
		t.Errorf("1-median cost %v not below round-robin %v", baseCost, rrCost)
	}
	rich, err := Greedy(routes, demand, 200)
	if err != nil {
		t.Fatal(err)
	}
	richCost := Cost(routes, demand, rich, u.SizeBytes)
	if richCost >= baseCost {
		t.Errorf("budgeted cost %v not below base %v", richCost, baseCost)
	}
}

// Cost returns the total response traffic (byte×hops per second) of a
// placement under closest-replica assignment.
func Cost(routes *routing.Table, demand Demand, placement Placement, sizeBytes int) float64 {
	n := routes.NumNodes()
	total := 0.0
	for x, replicas := range placement {
		for g := 0; g < n; g++ {
			w := demand[g][x]
			if w == 0 {
				continue
			}
			best := -1
			for _, r := range replicas {
				if d := routes.Distance(topology.NodeID(g), r); best < 0 || d < best {
					best = d
				}
			}
			if best > 0 {
				total += w * float64(best) * float64(sizeBytes)
			}
		}
	}
	return total
}
