package store

import (
	"time"

	"radar/internal/object"
)

// Mirror pairs two backends, writing every replica to both and serving
// from whichever side holds it, with buildbarn-style on-the-fly
// read-repair: a serve that finds the replica on one side only re-creates
// it on the other, healing divergence introduced by a faulty backend
// losing writes or crashing. Side A is preferred when both hold the
// replica, keeping serve costs deterministic.
type Mirror struct {
	a, b  ReplicaStore
	stats LayerStats
}

// NewMirror builds a mirrored pair over a and b.
func NewMirror(a, b ReplicaStore) *Mirror {
	return &Mirror{a: a, b: b}
}

// Create implements ReplicaStore: the write lands on both sides and
// succeeds if either side accepts it.
func (m *Mirror) Create(now time.Duration, id object.ID) bool {
	okA := m.a.Create(now, id)
	okB := m.b.Create(now, id)
	if okA || okB {
		m.stats.Creates++
		return true
	}
	return false
}

// Drop implements ReplicaStore.
func (m *Mirror) Drop(now time.Duration, id object.ID) {
	m.stats.Drops++
	m.a.Drop(now, id)
	m.b.Drop(now, id)
}

// Contains implements ReplicaStore: either side suffices.
func (m *Mirror) Contains(id object.ID) bool {
	return m.a.Contains(id) || m.b.Contains(id)
}

// ServeCost implements ReplicaStore: serve from the preferred side that
// holds the replica, then repair the other side if it diverged. Repair
// traffic is asynchronous background copying, so it does not add to the
// request's serve cost — only the Repairs counter records it.
func (m *Mirror) ServeCost(now time.Duration, id object.ID) time.Duration {
	m.stats.Serves++
	var cost time.Duration
	if m.a.Contains(id) {
		cost = m.a.ServeCost(now, id)
	} else {
		cost = m.b.ServeCost(now, id)
	}
	// Read-repair: heal whichever side lacks the replica while the other
	// holds it (a faulty side may itself have just refetched it above).
	hasA, hasB := m.a.Contains(id), m.b.Contains(id)
	if hasA && !hasB {
		if m.b.Create(now, id) {
			m.stats.Repairs++
		}
	} else if hasB && !hasA {
		if m.a.Create(now, id) {
			m.stats.Repairs++
		}
	}
	m.stats.CostNanos += int64(cost)
	return cost
}

// BytesUsed implements ReplicaStore: logical bytes, counted once per
// mirrored replica (the larger side dominates).
func (m *Mirror) BytesUsed() int64 {
	if ba, bb := m.a.BytesUsed(), m.b.BytesUsed(); ba >= bb {
		return ba
	} else {
		return bb
	}
}

// Replicas implements ReplicaStore.
func (m *Mirror) Replicas() int {
	if ra, rb := m.a.Replicas(), m.b.Replicas(); ra >= rb {
		return ra
	} else {
		return rb
	}
}

// Clear implements ReplicaStore.
func (m *Mirror) Clear(now time.Duration) {
	m.a.Clear(now)
	m.b.Clear(now)
}

// Stats implements ReplicaStore.
func (m *Mirror) Stats(buf []LayerStats) []LayerStats {
	s := m.stats
	s.Label = "mirror"
	s.Replicas = int64(m.Replicas())
	s.BytesUsed = m.BytesUsed()
	buf = append(buf, s)
	buf = m.a.Stats(buf)
	return m.b.Stats(buf)
}
