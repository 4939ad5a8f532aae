// Package store is the composable replica-storage backend stack: a small
// ReplicaStore interface extracted from the server and protocol layers
// (replica create/drop/contains, per-serve storage cost, capacity and
// per-replica byte accounting), plus memory and disk tiers and a bounded
// memory cache over a slower tier, stacked in the style of buildbarn's
// BlobAccess middleware.
//
// Determinism contract: a store's behavior is a pure function of its
// construction parameters and the sequence of object operations applied
// to it. Stores hold no global state and draw no randomness, so equal runs
// behave bit-identically at any experiment parallelism. The plain memory
// store is free: zero serve cost and unbounded capacity, leaving a run
// over it byte-identical to a build without this package.
package store

import (
	"time"

	"radar/internal/object"
)

// ReplicaStore is one hosting server's replica storage. The simulation
// keeps exactly one stack per host; calls arrive in order from a single
// goroutine (stores are not safe for concurrent use).
type ReplicaStore interface {
	// Create stores a replica of id. It returns false when capacity is
	// exhausted (the caller surfaces a storage refusal); a false return
	// leaves the store unchanged. Creating an already-held replica is a
	// no-op returning true.
	Create(id object.ID) bool
	// Drop removes the replica of id, if held.
	Drop(id object.ID)
	// Contains reports whether a replica of id is held and servable.
	Contains(id object.ID) bool
	// ServeCost charges one read of id and returns the extra service
	// latency the storage layer adds (zero for resident memory, the device
	// latency for a disk tier).
	ServeCost(id object.ID) time.Duration
	// BytesUsed is the bytes currently occupied by held replicas.
	BytesUsed() int64
	// Replicas is the number of held replicas.
	Replicas() int
	// Stats appends this store's per-layer counters to buf in pre-order
	// (self first, then children) and returns it. The layer order is a
	// function of the stack shape alone, so same-shaped stacks aggregate
	// index by index.
	Stats(buf []LayerStats) []LayerStats
}

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

// Memory is the one tier type: a set of held replicas with per-replica
// byte accounting, an optional replica-count bound and a fixed device
// latency every serve pays. The plain memory tier has zero latency (today's
// implicit hosting-server storage model made explicit); NewDisk builds the
// unbounded slow tier.
type Memory struct {
	label    string
	objBytes int64
	capacity int // max replicas; 0 = unbounded
	latency  time.Duration
	held     map[object.ID]struct{}
	stats    LayerStats
}

// NewMemory builds a memory store holding at most capacity replicas of
// objBytes each (capacity 0 = unbounded).
func NewMemory(label string, capacity int, objBytes int64) *Memory {
	return &Memory{label: label, objBytes: objBytes, capacity: capacity,
		held: make(map[object.ID]struct{})}
}

// NewDisk builds an unbounded slow tier with the given per-read latency.
// It models the paper-era "replica on the hosting server's disk" without
// queueing (the FCFS server model already serializes service).
func NewDisk(label string, latency time.Duration, objBytes int64) *Memory {
	m := NewMemory(label, 0, objBytes)
	m.latency = latency
	return m
}

// Create implements ReplicaStore.
func (m *Memory) Create(id object.ID) bool {
	if _, ok := m.held[id]; ok {
		return true
	}
	if m.capacity > 0 && len(m.held) >= m.capacity {
		return false
	}
	m.held[id] = struct{}{}
	m.stats.Creates++
	return true
}

// Drop implements ReplicaStore.
func (m *Memory) Drop(id object.ID) {
	if _, ok := m.held[id]; ok {
		delete(m.held, id)
		m.stats.Drops++
	}
}

// Contains implements ReplicaStore.
func (m *Memory) Contains(id object.ID) bool {
	_, ok := m.held[id]
	return ok
}

// ServeCost implements ReplicaStore: every read pays the tier's device
// latency, which is zero for resident replicas.
func (m *Memory) ServeCost(object.ID) time.Duration {
	m.stats.Serves++
	m.stats.CostNanos += int64(m.latency)
	return m.latency
}

// BytesUsed implements ReplicaStore.
func (m *Memory) BytesUsed() int64 { return int64(len(m.held)) * m.objBytes }

// Replicas implements ReplicaStore.
func (m *Memory) Replicas() int { return len(m.held) }

// Stats implements ReplicaStore.
func (m *Memory) Stats(buf []LayerStats) []LayerStats {
	s := m.stats
	s.Label = m.label
	s.Replicas = int64(len(m.held))
	s.BytesUsed = m.BytesUsed()
	return append(buf, s)
}
