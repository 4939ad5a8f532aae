package protocol

import (
	"testing"
	"time"

	"radar/internal/object"
	"radar/internal/topology"
)

// TestOffloadOrdersByForeignRatio: the offloading host examines objects
// "starting with those that have a higher rate of foreign requests"
// (Fig. 5). With the recipient estimate capping the run after one move,
// the most-foreign object must be the one that moves.
func TestOffloadOrdersByForeignRatio(t *testing.T) {
	params := DefaultParams()
	c := newCluster(t, topology.Line(4), params)
	c.loads[0].total = params.HighWatermark * 2

	mostForeign := object.ID(100)
	leastForeign := object.ID(101)
	for _, id := range []object.ID{mostForeign, leastForeign} {
		c.seed(id, 0)
		// Heavy per-object load so the recipient saturates after one
		// accept (recipient estimate += 4 * 25 = 100 >= lw).
		c.loads[0].perObj[id] = 25
	}
	// Both foreign ratios sit below REPL_RATIO (1/6) so the geo pass can
	// move nothing and only Offload acts: 15% vs 5%.
	for i := 0; i < 15; i++ {
		c.hosts[0].OnRequest(mostForeign, 2)
	}
	for i := 0; i < 85; i++ {
		c.hosts[0].OnRequest(mostForeign, 0)
	}
	for i := 0; i < 5; i++ {
		c.hosts[0].OnRequest(leastForeign, 2)
	}
	for i := 0; i < 95; i++ {
		c.hosts[0].OnRequest(leastForeign, 0)
	}
	pass := c.decide(0, 100*time.Second)
	if pass.OffloadRuns != 1 {
		t.Fatalf("offload did not run: %+v", pass)
	}
	if pass.loadMoves() != 1 {
		t.Fatalf("offload sent %d, want 1 (recipient saturates after one heavy object)", pass.loadMoves())
	}
	if len(c.red.ReplicaHosts(mostForeign, nil)) != 2 {
		t.Error("most-foreign object did not move")
	}
	// The least-foreign object must still be exclusively at the source
	// (the single available move went to the more foreign one).
	if len(c.red.ReplicaHosts(leastForeign, nil)) != 1 || !c.hosts[0].Has(leastForeign) {
		t.Error("least-foreign object moved before the most-foreign one")
	}
}

// TestOffloadExaminedOnce: an offload pass never moves the same object
// twice in one run (each object is examined once).
func TestOffloadExaminedOnce(t *testing.T) {
	params := DefaultParams()
	c := newCluster(t, topology.Line(4), params)
	overloadHostZero(t, c, params, 3, 100, 2) // hot objects, light loads
	if pass := c.decide(0, 100*time.Second); pass.OffloadRuns != 1 {
		t.Fatalf("offload did not run: %+v", pass)
	}
	// Hot objects are replicated during offload: each may gain at most
	// one new affinity unit at the recipient per run.
	for i := 0; i < 3; i++ {
		id := object.ID(100 + i)
		total := totalAffinity(c.red, id)
		if total > 2 {
			t.Errorf("object %d total affinity %d after one offload run, want <= 2", id, total)
		}
	}
}

// TestOffloadStopsWhenSourceEstimateRecovers: the lower-bound estimate
// crossing lw ends the run even with recipient headroom left.
func TestOffloadStopsWhenSourceEstimateRecovers(t *testing.T) {
	params := DefaultParams()
	c := newCluster(t, topology.Line(4), params)
	// Source barely above hw; the first shed pulls the lower estimate
	// under lw, so exactly one object moves.
	c.loads[0].total = params.HighWatermark + 1
	for i := 0; i < 4; i++ {
		id := object.ID(100 + i)
		c.seed(id, 0)
		c.loads[0].perObj[id] = 12 // shed bound 12 > (hw+1)-lw = 11
		for r := 0; r < 16; r++ {
			c.hosts[0].OnRequest(id, 0)
		}
	}
	pass := c.decide(0, 100*time.Second)
	if pass.OffloadRuns != 1 {
		t.Fatalf("offload did not run: %+v", pass)
	}
	if pass.loadMoves() != 1 {
		t.Fatalf("offload sent %d, want exactly 1 (source estimate recovered)", pass.loadMoves())
	}
}

// TestPolicyAndMethodStrings locks the report vocabulary.
func TestPolicyAndMethodStrings(t *testing.T) {
	if PolicyPaper.String() != "paper" || PolicyRoundRobin.String() != "round-robin" || PolicyClosest.String() != "closest" {
		t.Error("policy names changed")
	}
	if Policy(42).String() != "Policy(42)" {
		t.Error("unknown policy name changed")
	}
	for _, p := range []Policy{PolicyPaper, PolicyRoundRobin, PolicyClosest} {
		if got, err := ParsePolicy(p.String()); got != p || err != nil {
			t.Errorf("ParsePolicy(%q) = %v, %v", p, got, err)
		}
	}
	for _, name := range []string{"", "Policy(42)", "Paper", "best"} {
		if _, err := ParsePolicy(name); err == nil {
			t.Errorf("ParsePolicy(%q) accepted", name)
		}
	}
	if Migrate.String() != "MIGRATE" || Replicate.String() != "REPLICATE" || Method(9).String() != "UNKNOWN" {
		t.Error("method names changed")
	}
	if GeoMove.String() != "geo" || LoadMove.String() != "load" {
		t.Error("move kind names changed")
	}
}

func TestParseMethodRoundTrip(t *testing.T) {
	for _, m := range []Method{Migrate, Replicate, Repair} {
		got, err := ParseMethod(m.String())
		if err != nil || got != m {
			t.Fatalf("ParseMethod(%q) = %v, %v", m.String(), got, err)
		}
	}
	for _, name := range []string{"EXFILTRATE", "UNKNOWN", "migrate", ""} {
		if _, err := ParseMethod(name); err == nil {
			t.Errorf("ParseMethod(%q) accepted", name)
		}
	}
}

func TestParseMoveKindRoundTrip(t *testing.T) {
	for _, k := range []MoveKind{GeoMove, LoadMove, RepairMove} {
		got, err := ParseMoveKind(k.String())
		if err != nil || got != k {
			t.Fatalf("ParseMoveKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	for _, name := range []string{"sideways", "GEO", ""} {
		if _, err := ParseMoveKind(name); err == nil {
			t.Errorf("ParseMoveKind(%q) accepted", name)
		}
	}
}

// TestWeightedParams checks the §2 heterogeneity scaling.
func TestWeightedParams(t *testing.T) {
	p := DefaultParams().Weighted(2)
	if p.HighWatermark != 180 || p.LowWatermark != 160 {
		t.Fatalf("weighted watermarks = %v/%v, want 180/160", p.HighWatermark, p.LowWatermark)
	}
	// Thresholds and ratios are per-object properties, not host capacity:
	// they must not scale.
	base := DefaultParams()
	if p.DeletionThreshold != base.DeletionThreshold || p.ReplicationThreshold != base.ReplicationThreshold {
		t.Error("weighting must not scale object thresholds")
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("weighted params invalid: %v", err)
	}
}
