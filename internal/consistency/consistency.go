// Package consistency implements the replica consistency scheme of paper
// §5 as far as placement sees it: objects fall into three categories — (1)
// objects changed only by provider updates, (2) objects whose per-access
// updates commute (access statistics), replicable given statistics
// merging, and (3) objects with non-commuting per-access updates, which in
// general can only be migrated. The category table is a pure function of
// (universe, mix, seed), so every process of a fleet derives the same one
// from the shared configuration, and the replication gate the placement
// protocol consults is a closure over it.
package consistency

import (
	"fmt"

	"radar/internal/object"
	"radar/internal/workload"
)

// Category classifies an object per §5.
type Category uint8

// Object categories.
const (
	// Static objects change only via provider updates (§5 category 1).
	// Studies cited by the paper put 80-95% of Web accesses here.
	Static Category = iota + 1
	// Commuting objects collect commuting per-access updates (category 2).
	Commuting
	// NonCommuting objects have non-commuting per-access updates
	// (category 3): migration only.
	NonCommuting
)

// nonCommutingCap caps category-3 replica sets: 1 is migrate-only, the
// general case in §5.
const nonCommutingCap = 1

// Mix is the fraction of objects in each category. The zero Mix is the
// all-static population; any other must sum to 1.
type Mix struct {
	Static       float64
	Commuting    float64
	NonCommuting float64
}

// DefaultMix reflects the studies the paper cites (80-95% of accesses to
// category-1 objects): 85% static, 10% commuting, 5% non-commuting.
func DefaultMix() Mix {
	return Mix{Static: 0.85, Commuting: 0.10, NonCommuting: 0.05}
}

// Validate reports whether the mix is zero or a distribution.
func (m Mix) Validate() error {
	if m == (Mix{}) {
		return nil
	}
	if m.Static < 0 || m.Commuting < 0 || m.NonCommuting < 0 {
		return fmt.Errorf("consistency: negative fraction in %+v", m)
	}
	if total := m.Static + m.Commuting + m.NonCommuting; total < 0.999 || total > 1.001 {
		return fmt.Errorf("consistency: fractions sum to %v, want 1", total)
	}
	return nil
}

// Assign draws a category for each of u's objects, in ID order, from the
// seed's reserved stream following mix.
func Assign(u object.Universe, mix Mix, seed int64) []Category {
	cats := make([]Category, u.Count)
	rng := workload.Stream(seed, workload.ConsistencyStream)
	for i := range cats {
		switch roll := rng.Float64(); {
		case roll < mix.Static:
			cats[i] = Static
		case roll < mix.Static+mix.Commuting:
			cats[i] = Commuting
		default:
			cats[i] = NonCommuting
		}
	}
	return cats
}

// Gate returns the placement gate (protocol.Env.CanReplicate) over the
// table Assign builds: category 1 and 2 objects replicate freely, category
// 3 objects only while under the replica cap. The zero Mix gates nothing
// and gets nil.
func Gate(u object.Universe, mix Mix, seed int64) func(id object.ID, currentReplicas int) bool {
	if mix == (Mix{}) {
		return nil
	}
	cats := Assign(u, mix, seed)
	return func(id object.ID, currentReplicas int) bool {
		return cats[id] != NonCommuting || currentReplicas < nonCommutingCap
	}
}
