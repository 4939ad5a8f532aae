// Package store is a host's replica-storage model: the storage part of
// §2.1's vector load. A Stack gives each host a capacity that can refuse an
// acquisition and a per-read latency, and counts what each of its layers
// did (LayerStats).
//
// The host's object table is the one record of which replicas the host
// holds; a stack counts them and never names them. The host creates only
// an object it does not hold and drops only one it holds, so a stack's
// occupancy is its host's object count.
//
// Determinism contract: a stack's behavior is a pure function of its spec
// and the sequence of operations applied to it. Stacks hold no global state
// and draw no randomness, so equal runs behave bit-identically at any
// experiment parallelism. The default stack is free: zero serve cost and
// unbounded capacity, leaving a run over it byte-identical to a build
// without this package.
package store

import (
	"container/list"
	"time"

	"radar/internal/object"
)

// LayerStats is one stack layer's counters. Fields irrelevant to a layer
// kind stay zero (a memory tier has no hits or misses; only a cache does).
type LayerStats struct {
	// Label identifies the layer within its stack (e.g. "cache",
	// "mem:64", "disk:5ms").
	Label string
	// Creates/Drops/Serves count the layer's operations.
	Creates int64
	Drops   int64
	Serves  int64
	// Hits/Misses/Evictions are cache-tier counters.
	Hits      int64
	Misses    int64
	Evictions int64
	// Repairs, Refetches, Crashes and LostWrites are always zero: no
	// layer repairs, refetches or crashes. The fields stay because the
	// frozen ledger's identity hashes (benchmark/simrun.go) are over the
	// JSON of sim.Results, which carries these stats; they go with the
	// next PR that may re-pin those (ROADMAP item 1's benchmark PR).
	Repairs    int64
	Refetches  int64
	Crashes    int64
	LostWrites int64
	// Replicas/BytesUsed snapshot occupancy at collection time.
	Replicas  int64
	BytesUsed int64
	// CostNanos is the total serve latency this layer contributed.
	CostNanos int64
}

// add accumulates o into s, summing counters and occupancy. Labels must
// match (same stack shape); s keeps its own.
func (s *LayerStats) add(o LayerStats) {
	s.Creates += o.Creates
	s.Drops += o.Drops
	s.Serves += o.Serves
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.Replicas += o.Replicas
	s.BytesUsed += o.BytesUsed
	s.CostNanos += o.CostNanos
}

// Aggregate adds one node's per-layer counters (its stack's Stats) into
// the fleet view agg and returns it: same-shaped stacks sum layer by
// layer, the first node's layers start the aggregate.
func Aggregate(agg, node []LayerStats) []LayerStats {
	if agg == nil {
		return append([]LayerStats(nil), node...)
	}
	for i := range node {
		if i < len(agg) {
			agg[i].add(node[i])
		}
	}
	return agg
}

// Stack is one hosting server's replica storage: an authoritative tier (a
// replica count, an optional capacity and a fixed per-read device latency)
// and, for a cache(...) spec, a bounded LRU memory tier in front of it.
// Creates and drops go to both tiers (write-through); a serve hits the
// memory tier when the replica is resident and otherwise pays the
// authoritative tier's latency and makes it resident, evicting the least
// recently used replica when the memory tier is full. Eviction order is a
// pure function of the operation sequence. A Stack is not safe for
// concurrent use.
type Stack struct {
	objBytes int64
	capacity int           // authoritative replica bound; 0 = unbounded
	latency  time.Duration // authoritative per-read latency
	auth     LayerStats    // Replicas is the authoritative count

	// The memory tier in front; lru is nil for a plain tier.
	lruCap   int
	lru      *list.List // resident IDs, most recently used first
	resident map[object.ID]*list.Element
	cache    LayerStats // the "cache" layer
	fast     LayerStats // the memory tier; Replicas is the resident count
}

// Full reports whether the authoritative tier is at capacity, so a create
// must be refused (the host counts it as a §2.1 storage refusal).
func (s *Stack) Full() bool {
	return s.capacity > 0 && s.auth.Replicas >= int64(s.capacity)
}

// Create stores a replica of id, which the host does not hold. It never
// refuses: the host asks Full first, and a seeded replica counts even past
// the capacity.
func (s *Stack) Create(id object.ID) {
	s.auth.Creates++
	s.auth.Replicas++
	if s.lru != nil {
		s.cache.Creates++
		s.promote(id)
	}
}

// Drop removes the replica of id, which the host holds, from both tiers.
func (s *Stack) Drop(id object.ID) {
	s.auth.Drops++
	s.auth.Replicas--
	if s.lru != nil {
		s.cache.Drops++
		if el, ok := s.resident[id]; ok {
			s.unload(el)
		}
	}
}

// ServeCost charges one read of id and returns the latency storage adds to
// its service: zero for a resident replica, the authoritative tier's
// device latency otherwise.
func (s *Stack) ServeCost(id object.ID) time.Duration {
	if s.lru == nil {
		return charge(&s.auth, s.latency)
	}
	s.cache.Serves++
	if el, ok := s.resident[id]; ok {
		s.cache.Hits++
		s.lru.MoveToFront(el)
		return charge(&s.fast, 0)
	}
	s.cache.Misses++
	cost := charge(&s.auth, s.latency)
	s.cache.CostNanos += int64(cost)
	s.promote(id)
	return cost
}

// charge counts one serve of cost d on layer l and returns d.
func charge(l *LayerStats, d time.Duration) time.Duration {
	l.Serves++
	l.CostNanos += int64(d)
	return d
}

// promote makes id the most recently used resident replica, evicting the
// least recently used one if the memory tier is full.
func (s *Stack) promote(id object.ID) {
	if el, ok := s.resident[id]; ok {
		s.lru.MoveToFront(el)
		return
	}
	if s.lru.Len() >= s.lruCap {
		s.cache.Evictions++
		s.unload(s.lru.Back())
	}
	s.resident[id] = s.lru.PushFront(id)
	s.fast.Creates++
	s.fast.Replicas++
}

// unload takes a resident replica out of the memory tier.
func (s *Stack) unload(el *list.Element) {
	delete(s.resident, s.lru.Remove(el).(object.ID))
	s.fast.Drops++
	s.fast.Replicas--
}

// Stats appends the stack's per-layer counters to buf and returns it: the
// cache layer, its memory tier and the authoritative tier for a cache(...)
// stack, the one tier otherwise. The layer order is a function of the
// spec alone, so same-spec stacks aggregate index by index.
func (s *Stack) Stats(buf []LayerStats) []LayerStats {
	auth := s.auth
	auth.BytesUsed = auth.Replicas * s.objBytes
	if s.lru == nil {
		return append(buf, auth)
	}
	c, f := s.cache, s.fast
	c.Replicas, c.BytesUsed = auth.Replicas, auth.BytesUsed
	f.BytesUsed = f.Replicas * s.objBytes
	return append(buf, c, f, auth)
}
