package protocol

import (
	"time"

	"radar/internal/object"
	"radar/internal/topology"
)

// LoadReport is one host's answer to a load query — an entry of the
// periodic load-report exchange of §4.2.2: its accept-side load estimate
// and its own (weight-scaled) watermarks, plus, when the query names an
// object, whether the host already holds it and whether its
// acquisition-halt guard is active. The simulator reads reports from
// memory, a live node fetches them from /rpc/load (Env.LoadReport).
type LoadReport struct {
	AcceptLoad float64
	Low, High  float64
	Has        bool
	Halted     bool
}

// LoadReport answers a load query at time now. A negative id asks for the
// load and watermarks only.
func (h *Host) LoadReport(now time.Duration, id object.ID) LoadReport {
	r := LoadReport{
		AcceptLoad: h.est.LoadForAccept(h.loads.Load()),
		Low:        h.params.LowWatermark,
		High:       h.params.HighWatermark,
	}
	if id >= 0 {
		r.Has = h.Has(id)
		r.Halted = h.AcquisitionHalted(now)
	}
	return r
}

// electHost elects, among the other hosts, the one with the most relative
// headroom below its accept ceiling lw + w·(hw−lw), strictly below it.
// Each host is judged against its own watermarks, so strong hosts absorb
// more. It returns the winner and its reported accept-side load.
//
// An offload recipient (Fig. 5) is elected with id < 0 and w = 0: the
// ceiling is the low watermark. A replica-floor repair target is elected
// with the object's id and w = Params.AvailabilityWeight: holders are
// skipped, the ceiling relaxes from lw toward hw by w (floor restoration
// may consume load-balancing headroom in proportion to the knob), and with
// w > 0 hosts whose acquisition-halt guard is active are skipped too —
// their load estimate is stale-low, so the pure-headroom rule would keep
// electing them and every such election is a guaranteed refusal that costs
// the object a placement interval of single-copy exposure. Weight zero
// keeps halted electees, byte-for-byte the paper's selection.
func (h *Host) electHost(now time.Duration, id object.ID, w float64) (best topology.NodeID, load float64, found bool) {
	bestRel := 0.0
	for i := 0; i < h.numNodes; i++ {
		p := topology.NodeID(i)
		if p == h.ID {
			continue
		}
		r, ok := h.env.LoadReport(p, now, id)
		if !ok || r.Has || (w > 0 && r.Halted) {
			continue
		}
		ceiling := r.Low + w*(r.High-r.Low)
		if rel := r.AcceptLoad / ceiling; r.AcceptLoad < ceiling && (!found || rel < bestRel) {
			best, load, bestRel, found = p, r.AcceptLoad, rel, true
		}
	}
	return best, load, found
}
