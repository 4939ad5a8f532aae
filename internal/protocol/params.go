// Package protocol implements the paper's contribution: the request
// distribution algorithm run by redirectors (Fig. 2), the autonomous
// replica placement algorithm run by every host (Fig. 3), the replica
// creation handshake (Fig. 4), the host offloading protocol (Fig. 5), and
// the load-change bounds of Theorems 1-5 that tie them together.
//
// The package is simulation-agnostic: time is passed in explicitly, loads
// arrive through the LoadSource interface, and the network and peers are
// reached through the Env wiring, so the same code runs under the
// discrete-event simulator or in unit tests with hand-built fixtures.
package protocol

import (
	"errors"
	"fmt"
	"time"
)

// migrRatio is Fig. 3's MIGR_RATIO: an object migrates to a candidate
// appearing on the preference paths of more than this fraction of its
// requests. It must be in (0.5, 1] so no two candidates can both draw an
// object back and forth; the paper uses 0.6 (§4.2).
const migrRatio = 0.6

// replRatio is Fig. 3's REPL_RATIO: the minimum fraction of an object's
// requests a candidate must appear in to receive a replica. It must be in
// (0, migrRatio) for replication to ever happen; the paper uses 1/6.
const replRatio = 1.0 / 6

// estimateHaltAfter implements §2.1 footnote 2: when a host's upper-bound
// load estimate has been continuously active for longer than this
// (back-to-back acquisitions keep every measurement interval dirty), the
// host halts further acquisitions until a clean interval completes and
// fresh load measurements are available. It must be positive.
const estimateHaltAfter = 60 * time.Second

// Params are the protocol's tunable parameters (paper §4.2 and Table 1).
type Params struct {
	// HighWatermark hw is the load (requests/sec) above which a host
	// switches to offloading mode. It reflects host capacity.
	HighWatermark float64
	// LowWatermark lw (< hw) is the load below which a host leaves
	// offloading mode; candidates accept new replicas only below it.
	LowWatermark float64
	// DeletionThreshold u: an affinity unit whose unit access count
	// (requests/sec) falls below u can be dropped.
	DeletionThreshold float64
	// ReplicationThreshold m: an object may be replicated only when its
	// unit access count exceeds m. Stability requires 4u < m (Theorem 5);
	// the paper uses m = 6u to avoid boundary effects.
	ReplicationThreshold float64
	// DistConstant is the constant of the request distribution algorithm
	// (Fig. 2): the closest replica is used unless its unit request count
	// exceeds DistConstant times the minimum. The paper uses 2; the load
	// bounds of Theorems 1-5 are stated for that value.
	DistConstant float64
	// MaxOffloadPerRun caps how many objects one Offload pass may move.
	// Zero means unlimited — the paper's en-masse relocation, enabled by
	// the load bounds. Setting it to 1 recreates the move-one-then-wait
	// strawman the paper argues against (§1.2); used by ablations.
	MaxOffloadPerRun int
	// NeighborOnly restricts all relocation targets to direct topology
	// neighbors, recreating the ADR/WebWave-style placement the paper
	// contrasts itself with (§1.1: "objects are replicated only between
	// neighbor servers, which would result in high delays and overheads
	// for creating distant replicas"). Pair it with PolicyClosest for the
	// full related-work baseline. Off in the paper's protocol.
	NeighborOnly bool
	// ReplicaFloor is the minimum replica count the system tries to keep
	// per object — the availability extension paired with fault injection.
	// When > 1, the redirector refuses drops that would go below the floor
	// and every host's placement pass re-replicates hosted objects whose
	// replica count fell below it (a repair replication, reported
	// separately from geo/load moves). Zero or one preserves the paper's
	// behavior exactly: replicas exist only where demand warrants them and
	// only the last copy is protected.
	ReplicaFloor int
	// AvailabilityWeight folds an availability objective into the
	// replicate/migrate candidate ordering (the continuous-placement idea
	// of availability-aware replica placement): candidates are scored by
	// (1-w)·distance + w·availability-gain, where the gain rewards targets
	// that add a new copy and widen the minimum distance between surviving
	// replicas (failure-domain spread). Zero — the default — preserves the
	// paper's farthest-first ordering byte-for-byte; 1 orders candidates by
	// availability gain alone. Must be in [0, 1].
	AvailabilityWeight float64
}

// Weighted scales the load watermarks by a host's relative power w,
// implementing the §2 heterogeneity note ("heterogeneity could be
// introduced by incorporating into the protocol weights corresponding to
// relative power of hosts"). w must be positive.
func (p Params) Weighted(w float64) Params {
	p.HighWatermark *= w
	p.LowWatermark *= w
	return p
}

// DefaultParams returns the paper's low-load configuration (Table 1):
// hw/lw = 90/80 req/s, u = 0.03 req/s, m = 6u, distribution constant 2.
// Table 1's MIGR_RATIO and REPL_RATIO are the constants migrRatio and
// replRatio.
func DefaultParams() Params {
	return Params{
		HighWatermark:        90,
		LowWatermark:         80,
		DeletionThreshold:    0.03,
		ReplicationThreshold: 0.18,
		DistConstant:         2,
	}
}

// HighLoadParams returns the paper's high-load configuration (Fig. 9):
// hw/lw = 50/40 req/s, all else as DefaultParams.
func HighLoadParams() Params {
	p := DefaultParams()
	p.HighWatermark = 50
	p.LowWatermark = 40
	return p
}

// Validation errors returned by Params.Validate.
var (
	ErrWatermarks    = errors.New("protocol: need 0 < lw < hw")
	ErrThresholds    = errors.New("protocol: need 0 < 4u < m (Theorem 5 stability constraint)")
	ErrDistConstant  = errors.New("protocol: distribution constant must be > 1")
	ErrNilDependency = errors.New("protocol: missing dependency")
)

// Validate checks the theoretical constraints the paper imposes on the
// parameters (§4.2).
func (p Params) Validate() error {
	if p.LowWatermark <= 0 || p.HighWatermark <= p.LowWatermark {
		return fmt.Errorf("%w: hw=%v lw=%v", ErrWatermarks, p.HighWatermark, p.LowWatermark)
	}
	if p.DeletionThreshold <= 0 || p.ReplicationThreshold <= 4*p.DeletionThreshold {
		return fmt.Errorf("%w: u=%v m=%v", ErrThresholds, p.DeletionThreshold, p.ReplicationThreshold)
	}
	if p.DistConstant <= 1 {
		return fmt.Errorf("%w: got %v", ErrDistConstant, p.DistConstant)
	}
	if p.MaxOffloadPerRun < 0 {
		return fmt.Errorf("protocol: MaxOffloadPerRun %d must be non-negative", p.MaxOffloadPerRun)
	}
	if p.ReplicaFloor < 0 {
		return fmt.Errorf("protocol: ReplicaFloor %d must be non-negative", p.ReplicaFloor)
	}
	if p.AvailabilityWeight < 0 || p.AvailabilityWeight > 1 || p.AvailabilityWeight != p.AvailabilityWeight {
		return fmt.Errorf("protocol: AvailabilityWeight %v must be in [0,1]", p.AvailabilityWeight)
	}
	return nil
}
