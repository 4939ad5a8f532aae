package scenario

import (
	"testing"

	"radar/internal/object"
)

// TestCorpusInvariants checks, for every corpus scenario at its final
// reconcile boundary (Results are assembled after the horizon's closing
// anti-entropy pass):
//
//   - no ghost records: the post-run invariant check passes, so every
//     redirector record points at a live replica with a matching affinity;
//   - outage accounting consistency: unavailable object-seconds exist
//     exactly when outage windows were recorded, and stay within the
//     universe × horizon bound;
//   - floor census truthfulness: the final below-floor census sample
//     counts exactly the objects still below the floor per the
//     redirectors' records.
func TestCorpusInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("integration runs")
	}
	for _, sc := range Corpus() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			run := runScenario(t, sc.Name)
			res := run.res
			if res.InvariantsError != nil {
				t.Fatalf("invariants (ghost records / stale affinity): %v", res.InvariantsError)
			}

			if (res.Outages == 0) != (res.UnavailObjSecs == 0) {
				t.Errorf("outage accounting inconsistent: %d windows, %.0f object-seconds",
					res.Outages, res.UnavailObjSecs)
			}
			sp, err := sc.Spec()
			if err != nil {
				t.Fatal(err)
			}
			maxObjSecs := float64(sp.Objects) * sp.Duration.Seconds()
			if res.UnavailObjSecs < 0 || res.UnavailObjSecs > maxObjSecs {
				t.Errorf("unavailable object-seconds %.0f outside [0, %.0f]", res.UnavailObjSecs, maxObjSecs)
			}
			if !sp.Faults.Enabled() && (res.Outages != 0 || res.FailedRequests != 0) {
				t.Errorf("fault-free scenario reports %d outages, %d failed requests",
					res.Outages, res.FailedRequests)
			}

			if sp.Floor > 1 {
				below := 0
				for _, red := range run.sim.Redirectors() {
					red.EachObject(func(id object.ID) {
						if len(red.ReplicaHosts(id, nil)) < sp.Floor {
							below++
						}
					})
				}
				if len(res.BelowFloor) == 0 {
					t.Fatalf("no below-floor census despite floor %d", sp.Floor)
				}
				if final := res.BelowFloor[len(res.BelowFloor)-1]; int(final.V) != below {
					t.Errorf("final below-floor census = %v, want %d (objects actually below floor %d)",
						final.V, below, sp.Floor)
				}
			}
		})
	}
}
