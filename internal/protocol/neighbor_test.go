package protocol

import (
	"testing"
	"time"

	"radar/internal/topology"
)

// TestNeighborOnlyRestrictsGeoTargets: under the ADR/WebWave-style
// baseline, a far candidate that dominates the preference paths must be
// skipped in favor of the direct neighbor.
func TestNeighborOnlyRestrictsGeoTargets(t *testing.T) {
	params := DefaultParams()
	params.NeighborOnly = true
	c := newCluster(t, topology.Line(6), params)
	c.seed(obj, 0)
	// All requests from the far end: node 5 dominates, but nodes 1..5 all
	// appear on every path; only neighbor 1 is a legal target.
	for i := 0; i < 100; i++ {
		c.hosts[0].OnRequest(obj, 5)
	}
	if pass := c.decide(0, 100*time.Second); pass.GeoMigrations != 1 {
		t.Fatalf("GeoMigrations = %d, want 1", pass.GeoMigrations)
	}
	if !c.hosts[1].Has(obj) {
		t.Error("object should have crawled to the direct neighbor")
	}
	for n := 2; n <= 5; n++ {
		if c.hosts[n].Has(obj) {
			t.Errorf("object jumped to non-neighbor %d", n)
		}
	}
}

// TestNeighborOnlyCrawlIsSlow: reaching a distant demand center takes one
// placement round per hop under the baseline, versus one round for the
// paper's direct placement — the §1.1 responsiveness critique.
func TestNeighborOnlyCrawlIsSlow(t *testing.T) {
	mkCluster := func(neighborOnly bool) *cluster {
		params := DefaultParams()
		params.NeighborOnly = neighborOnly
		return newCluster(t, topology.Line(6), params)
	}
	rounds := func(c *cluster) int {
		c.seed(obj, 0)
		for round := 1; round <= 12; round++ {
			holder := topology.NodeID(-1)
			for n := 0; n < 6; n++ {
				if c.hosts[n].Has(obj) {
					holder = topology.NodeID(n)
				}
			}
			if holder == 5 {
				return round - 1
			}
			// Fresh demand from the far end each round, then every host
			// runs its periodic placement (in ID order).
			for i := 0; i < 100; i++ {
				c.hosts[holder].OnRequest(obj, 5)
			}
			for n := 0; n < 6; n++ {
				c.hosts[n].DecidePlacement(time.Duration(round) * 100 * time.Second)
			}
		}
		return 12
	}
	paper := rounds(mkCluster(false))
	crawl := rounds(mkCluster(true))
	if paper != 1 {
		t.Errorf("paper protocol took %d rounds, want 1 (direct distant migration)", paper)
	}
	if crawl != 5 {
		t.Errorf("neighbor-only took %d rounds, want 5 (one hop per round)", crawl)
	}
}

// TestNeighborOnlyOffloadRestricted: the baseline cannot offload to a
// distant recipient.
func TestNeighborOnlyOffloadRestricted(t *testing.T) {
	params := DefaultParams()
	params.NeighborOnly = true
	c := newCluster(t, topology.Line(6), params)
	overloadHostZero(t, c, params, 4, 16, 10)
	// Make the only under-loaded host the far end: recipient would be
	// node 5, which is not a neighbor of 0.
	for i := 1; i <= 4; i++ {
		c.loads[i].total = params.LowWatermark + 1
	}
	pass := c.decide(0, 100*time.Second)
	if pass.OffloadRuns != 1 {
		t.Fatalf("offload did not run: %+v", pass)
	}
	if pass.loadMoves() != 0 {
		t.Fatalf("offload sent %d, want 0 (recipient not a neighbor)", pass.loadMoves())
	}
}
