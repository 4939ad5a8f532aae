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

// boardEntry is one peer's line on a host's load board: its answer to this
// pass's load-report exchange. Only the load and watermarks are read back;
// the object-specific fields are asked per election.
type boardEntry struct {
	report LoadReport
	asked  bool // queried this pass, and not handshaken with since
	up     bool // the query was answered
}

// forgetReport drops peer p's board entry, so the next election asks p
// again. createObj calls it for every handshake this host sends, whatever
// the outcome: an accepted copy raises p's load estimate, and a lost reply
// may still have executed.
func (h *Host) forgetReport(p topology.NodeID) {
	if h.board != nil {
		h.board[p] = boardEntry{}
	}
}

// contends reports r's load relative to its accept ceiling lw + w·(hw−lw),
// and whether r takes the election from the incumbent: strictly below its
// ceiling, and strictly more relative headroom than bestRel when an
// incumbent was found.
func (r LoadReport) contends(w float64, found bool, bestRel float64) (rel float64, wins bool) {
	ceiling := r.Low + w*(r.High-r.Low)
	rel = r.AcceptLoad / ceiling
	return rel, r.AcceptLoad < ceiling && (!found || rel < bestRel)
}

// electHost elects, among the other hosts, the one with the most relative
// headroom below its accept ceiling lw + w·(hw−lw), strictly below it.
// Each host is judged against its own watermarks, so strong hosts absorb
// more. It returns the winner and its report.
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
//
// Loads come from the host's load board, the once-per-pass report exchange
// of §4.2.2: DecidePlacement (and OnCrash) empties it, the first election
// of a pass asks every peer for its load and watermarks, and later
// elections rank the same entries; a peer is asked again only after a
// handshake from this host (forgetReport). The object-specific question —
// does the peer hold id, is its halt guard active — goes only to a peer
// that would take the lead on load alone, so the winner is the one a scan
// asking all N−1 peers about id would elect. Its answer carries the peer's
// current load too and replaces the entry; a peer that fails to answer
// either query is skipped for the rest of the pass.
func (h *Host) electHost(now time.Duration, id object.ID, w float64) (best topology.NodeID, report LoadReport, found bool) {
	if h.board == nil {
		h.board = make([]boardEntry, len(h.nodeBuf))
	}
	bestRel := 0.0
	for i := range h.board {
		p := topology.NodeID(i)
		if p == h.ID {
			continue
		}
		e := &h.board[i]
		if !e.asked {
			e.report, e.up = h.env.LoadReport(p, now, -1)
			e.asked = true
		}
		if !e.up {
			continue
		}
		rel, wins := e.report.contends(w, found, bestRel)
		if wins && id >= 0 {
			e.report, e.up = h.env.LoadReport(p, now, id)
			if !e.up || e.report.Has || (w > 0 && e.report.Halted) {
				continue
			}
			rel, wins = e.report.contends(w, found, bestRel)
		}
		if wins {
			best, report, bestRel, found = p, e.report, rel, true
		}
	}
	return best, report, found
}
