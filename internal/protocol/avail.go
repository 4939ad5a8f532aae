package protocol

import (
	"cmp"
	"slices"

	"radar/internal/object"
	"radar/internal/topology"
)

// Availability-aware candidate ordering — the continuous-placement
// objective of availability-aware replica placement folded into the
// Fig. 3 replicate/migrate decision. The paper orders candidates
// farthest-first (responsiveness); with Params.AvailabilityWeight w > 0
// each candidate p is instead scored
//
//	score(p) = (1-w)·dist(h,p)/D + w·(newCopy(p) + spread(p))/2
//
// where D is the topology diameter, newCopy(p) is 1 iff p holds no
// replica of the object (the move widens the failure-domain set), and
// spread(p) is the minimum distance from p to the replicas that survive
// the move, normalized by D — placing far from existing copies keeps a
// regional outage from taking out the whole set. Candidates are tried in
// decreasing score; ties preserve the paper's farthest-first order.
//
// Additionally, when a replica floor is configured, migrations onto a
// host that already holds a copy are demoted behind every other
// candidate whenever the recorded set is at or below the floor: such a
// migration merges two replicas into one (the target absorbs the copy as
// an affinity increment and the source then asks to drop), so it either
// thins the set toward the floor or is refused by the redirector and
// wasted. With w = 0 none of this runs and the ordering — including its
// redirector traffic — is byte-for-byte the paper's.

// availCand pairs a candidate with its score and floor-safety verdict.
type availCand struct {
	node  topology.NodeID
	score float64
	safe  bool
}

// orderCandidates returns the targets for moving id (method is Migrate or
// Replicate) that appear on more than ratio of its preference paths, in the
// order they should be tried. That is farthest first, the paper's
// responsiveness heuristic, with ties by node ID; under the NeighborOnly
// baseline only direct neighbors qualify. A positive AvailabilityWeight
// then re-sorts them, stably, by score.
//
// Only the qualifying candidates are ordered. Both sorts compare a
// candidate by values of its own, so the order is the subsequence of what
// ordering every counted node would give.
func (h *Host) orderCandidates(id object.ID, st *objState, method Method, ratio float64) []topology.NodeID {
	cands, total := h.candBuf[:0], float64(st.total)
	for p, c := range h.nodeCounts(st) {
		if c > 0 && float64(c)/total > ratio && topology.NodeID(p) != h.ID &&
			(!h.params.NeighborOnly || h.env.Routes.Distance(h.ID, topology.NodeID(p)) == 1) {
			cands = append(cands, topology.NodeID(p))
		}
	}
	h.env.Routes.SortByDistanceDesc(h.ID, cands)
	w := h.params.AvailabilityWeight
	if w == 0 || len(cands) < 2 {
		return cands
	}
	diam := float64(h.env.Routes.Diameter())
	if diam <= 0 {
		return cands
	}
	h.replBuf = h.env.RedirectorFor(id).ReplicaHosts(id, h.replBuf)
	replicas := h.replBuf

	scored := h.availBuf[:0]
	for _, p := range cands {
		scored = append(scored, availCand{
			node:  p,
			score: h.availScore(p, replicas, method, w, diam),
			safe:  h.floorSafe(p, replicas, method),
		})
	}
	slices.SortStableFunc(scored, func(a, b availCand) int {
		if a.safe != b.safe {
			if a.safe {
				return -1
			}
			return 1
		}
		return cmp.Compare(b.score, a.score)
	})
	for i := range scored {
		cands[i] = scored[i].node
	}
	h.availBuf = scored
	return cands
}

// availScore computes the blended distance/availability score of placing
// a copy of the object on p given its current replica hosts.
func (h *Host) availScore(p topology.NodeID, replicas []topology.NodeID, method Method, w, diam float64) float64 {
	distNorm := float64(h.env.Routes.Distance(h.ID, p)) / diam
	newCopy := 1.0
	for _, r := range replicas {
		if r == p {
			newCopy = 0
			break
		}
	}
	// spread: minimum distance from p to the copies that survive the move
	// (a migration's source copy departs). No surviving peer means any
	// placement maximizes diversity.
	spread, first := 1.0, true
	for _, r := range replicas {
		if method == Migrate && r == h.ID {
			continue
		}
		var d float64
		if r != p {
			d = float64(h.env.Routes.Distance(p, r)) / diam
		}
		if first || d < spread {
			spread, first = d, false
		}
	}
	return (1-w)*distNorm + w*(newCopy+spread)/2
}

// floorSafe reports whether trying candidate p cannot thin the replica
// set below the floor. Only a migration onto a host already holding a
// copy is unsafe, and only while the recorded set is at or below the
// floor; replications always grow or keep the set.
func (h *Host) floorSafe(p topology.NodeID, replicas []topology.NodeID, method Method) bool {
	if method != Migrate || h.params.ReplicaFloor <= 1 || len(replicas) > h.params.ReplicaFloor {
		return true
	}
	for _, r := range replicas {
		if r == p {
			return false
		}
	}
	return true
}
