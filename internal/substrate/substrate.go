// Package substrate caches the expensive immutable inputs of a simulation
// run — the backbone topology and its all-pairs routing table — so that
// repeated and concurrent runs over the same topology share one copy
// instead of rebuilding N.
//
// An experiment suite (internal/experiments) executes dozens of runs, all
// on the same backbone; before this cache each run paid a full
// topology.UUNET() + routing.New() build and kept its own ~O(V²·diameter)
// path arena live for the run's duration. The substrate layer amortizes
// that: runs are keyed by a canonical fingerprint of the topology's
// structure (node names, regions and adjacency), and all workers sharing a
// fingerprint receive the same frozen *routing.Table and *Topology.
//
// Sharing is sound because both types are immutable once constructed:
// Topology has no mutating methods, and routing.Table documents its freeze
// point (see the Table godoc and the -race hammer test in
// internal/routing). The cache itself is concurrency-safe and
// single-flight — when many workers ask for the same fingerprint at once,
// exactly one builds and the rest block until it is done.
package substrate

import (
	"fmt"
	"hash/fnv"
	"sync"

	"radar/internal/routing"
	"radar/internal/topology"
)

// Substrate bundles the shared immutable inputs of a run: one topology and
// the routing table computed from it. Everything reachable from a
// Substrate is read-only; it may be used from any number of goroutines.
type Substrate struct {
	Topo   *topology.Topology
	Routes *routing.Table
	key    string
}

// Fingerprint returns a 64-bit digest of the canonical structure key,
// useful for logging and artifacts. Cache identity is decided by the full
// canonical key, not this digest, so fingerprint collisions cannot alias
// two different topologies.
func (s *Substrate) Fingerprint() uint64 {
	h := fnv.New64a()
	h.Write([]byte(s.key))
	return h.Sum64()
}

// canonicalKey serializes the structure a routing table depends on: node
// count, then each node's name and region in ID order, then every
// adjacency list. Two topologies with equal keys produce bit-identical
// routing tables.
func canonicalKey(topo *topology.Topology) string {
	var b []byte
	b = fmt.Appendf(b, "v1;n=%d;", topo.NumNodes())
	for _, node := range topo.Nodes() {
		b = fmt.Appendf(b, "%q/%d;", node.Name, int(node.Region))
	}
	for id := 0; id < topo.NumNodes(); id++ {
		b = fmt.Appendf(b, "a%d:", id)
		for _, w := range topo.Neighbors(topology.NodeID(id)) {
			b = fmt.Appendf(b, "%d,", int(w))
		}
		b = append(b, ';')
	}
	return string(b)
}

// entry is one cache slot; once guards the single-flight build.
type entry struct {
	once sync.Once
	sub  *Substrate
}

var (
	mu sync.Mutex
	// cache holds one entry per distinct topology structure. It is never
	// evicted: topologies are tiny (a few hundred KB of routing state each)
	// and experiment processes use a handful at most.
	cache = map[string]*entry{}

	uunetOnce sync.Once
	uunet     *Substrate
)

// Shared returns the cached substrate for topo, building the routing table
// exactly once per distinct topology structure. The returned
// Substrate.Topo is the first structurally-equal topology the cache saw —
// it may not be the same pointer as the argument, but it is
// indistinguishable from it (same IDs, names, regions and adjacency).
func Shared(topo *topology.Topology) *Substrate {
	key := canonicalKey(topo)
	mu.Lock()
	e, ok := cache[key]
	if !ok {
		e = &entry{}
		cache[key] = e
	}
	mu.Unlock()
	e.once.Do(func() {
		e.sub = &Substrate{Topo: topo, Routes: routing.New(topo), key: key}
	})
	return e.sub
}

// UUNET returns the substrate of the canonical 53-node backbone, built on
// first use. This is the fast path for default-configured runs: it skips
// both the topology reconstruction and the fingerprint computation after
// the first call.
func UUNET() *Substrate {
	uunetOnce.Do(func() {
		uunet = Shared(topology.UUNET())
	})
	return uunet
}
