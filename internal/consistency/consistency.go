// Package consistency implements the replica consistency scheme of paper
// §5: objects fall into three categories — (1) objects changed only by
// provider updates, kept consistent with a primary copy and asynchronous
// propagation (immediate or batched); (2) objects whose per-access updates
// commute (access statistics), replicable given statistics merging; and
// (3) objects with non-commuting per-access updates, which in general can
// only be migrated, or replicated up to a small cap when the application
// tolerates inconsistency.
//
// The package supplies the replication gate the placement protocol
// consults (CanReplicate), primary-copy tracking across migrations and
// drops, and an update-propagation planner that the simulator charges to
// the network.
package consistency

import (
	"fmt"

	"radar/internal/object"
	"radar/internal/topology"
	"radar/internal/workload"
)

// Category classifies an object per §5.
type Category int

// Object categories.
const (
	// Static objects change only via provider updates (§5 category 1).
	// Studies cited by the paper put 80-95% of Web accesses here.
	Static Category = iota + 1
	// Commuting objects collect commuting per-access updates (category 2).
	Commuting
	// NonCommuting objects have non-commuting per-access updates
	// (category 3): migration only, or a capped number of replicas.
	NonCommuting
)

// String returns the category's report name.
func (c Category) String() string {
	switch c {
	case Static:
		return "static"
	case Commuting:
		return "commuting"
	case NonCommuting:
		return "non-commuting"
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// Mix is the fraction of objects in each category. Fractions must sum
// to 1.
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

// Validate reports whether the mix is a distribution.
func (m Mix) Validate() error {
	if m.Static < 0 || m.Commuting < 0 || m.NonCommuting < 0 {
		return fmt.Errorf("consistency: negative fraction in %+v", m)
	}
	if total := m.Static + m.Commuting + m.NonCommuting; total < 0.999 || total > 1.001 {
		return fmt.Errorf("consistency: fractions sum to %v, want 1", total)
	}
	return nil
}

// Manager tracks per-object categories and primary copies and gates
// replication for category-3 objects.
type Manager struct {
	categories []Category
	primary    []topology.NodeID
	// maxNonCommutingReplicas caps category-3 replica sets; 1 means
	// migrate-only (the general case in §5).
	maxNonCommutingReplicas int

	pendingUpdates map[object.ID]int
}

// New assigns categories to u's objects deterministically from seed
// following mix, seeds primaries with the round-robin home nodes over
// numNodes, and caps category-3 replica sets at maxNonCommuting (>= 1).
func New(u object.Universe, mix Mix, numNodes int, maxNonCommuting int, seed int64) (*Manager, error) {
	if err := u.Validate(); err != nil {
		return nil, err
	}
	if err := mix.Validate(); err != nil {
		return nil, err
	}
	if numNodes <= 0 {
		return nil, fmt.Errorf("consistency: numNodes %d must be positive", numNodes)
	}
	if maxNonCommuting < 1 {
		return nil, fmt.Errorf("consistency: category-3 replica cap %d must be >= 1", maxNonCommuting)
	}
	m := &Manager{
		categories:              make([]Category, u.Count),
		primary:                 make([]topology.NodeID, u.Count),
		maxNonCommutingReplicas: maxNonCommuting,
		pendingUpdates:          make(map[object.ID]int),
	}
	rng := workload.Stream(seed, 0xC0DE)
	for i := 0; i < u.Count; i++ {
		roll := rng.Float64()
		switch {
		case roll < mix.Static:
			m.categories[i] = Static
		case roll < mix.Static+mix.Commuting:
			m.categories[i] = Commuting
		default:
			m.categories[i] = NonCommuting
		}
		m.primary[i] = u.HomeNode(object.ID(i), numNodes)
	}
	return m, nil
}

// Category returns the object's category.
func (m *Manager) Category(id object.ID) Category { return m.categories[id] }

// Primary returns the node holding the object's primary copy.
func (m *Manager) Primary(id object.ID) topology.NodeID { return m.primary[id] }

// CanReplicate is the placement gate: category 1 and 2 objects replicate
// freely; category 3 objects only while under the replica cap. The
// signature matches protocol.Env.CanReplicate.
func (m *Manager) CanReplicate(id object.ID, currentReplicas int) bool {
	if m.categories[id] != NonCommuting {
		return true
	}
	return currentReplicas < m.maxNonCommutingReplicas
}

// OnMigrate tracks the primary across migrations: if the primary's host
// sheds its copy, the primary moves with it.
func (m *Manager) OnMigrate(id object.ID, from, to topology.NodeID) {
	if m.primary[id] == from {
		m.primary[id] = to
	}
}

// OnDrop re-homes the primary when its host drops the replica; fallback
// names the surviving replica set's representative.
func (m *Manager) OnDrop(id object.ID, host topology.NodeID, survivor topology.NodeID) {
	if m.primary[id] == host {
		m.primary[id] = survivor
	}
}

// PropagationMode selects how provider updates reach replicas.
type PropagationMode int

// Propagation modes (§5: "updates can propagate from the primary
// asynchronously ... either immediately or in batches using epidemic
// mechanisms").
const (
	Immediate PropagationMode = iota + 1
	Batched
)

// Update records a provider write against an object's primary.
func (m *Manager) Update(id object.ID) {
	m.pendingUpdates[id]++
}

// Pending returns the number of unpropagated updates for id.
func (m *Manager) Pending(id object.ID) int { return m.pendingUpdates[id] }

// Propagation is one primary-to-replica transfer the simulator must
// charge to the network.
type Propagation struct {
	ID   object.ID
	From topology.NodeID
	To   topology.NodeID
	// Updates is the number of provider writes carried (batching
	// amortizes transfers over many updates).
	Updates int
}

// Flush plans propagation of pending updates for id to the given replica
// set and clears the pending counter. In Immediate mode callers flush
// after every update; in Batched mode on a timer. Replicas equal to the
// primary are skipped.
func (m *Manager) Flush(id object.ID, replicas []topology.NodeID) []Propagation {
	n := m.pendingUpdates[id]
	if n == 0 {
		return nil
	}
	delete(m.pendingUpdates, id)
	var out []Propagation
	for _, r := range replicas {
		if r == m.primary[id] {
			continue
		}
		out = append(out, Propagation{ID: id, From: m.primary[id], To: r, Updates: n})
	}
	return out
}
