package store

import (
	"sync/atomic"
	"time"

	"radar/internal/object"
)

// Metered counts operations and serve cost flowing through it without
// changing behavior. Its counters are atomic: unlike the stores it wraps
// (single-goroutine by contract), a Metered layer's counters may be read
// while another goroutine drives the stack, and the -race hammer in the
// tests exercises exactly that.
type Metered struct {
	label     string
	inner     ReplicaStore
	creates   atomic.Int64
	drops     atomic.Int64
	serves    atomic.Int64
	costNanos atomic.Int64
}

// NewMetered wraps inner with an operation meter.
func NewMetered(label string, inner ReplicaStore) *Metered {
	return &Metered{label: label, inner: inner}
}

// Create implements ReplicaStore.
func (m *Metered) Create(now time.Duration, id object.ID) bool {
	if m.inner.Create(now, id) {
		m.creates.Add(1)
		return true
	}
	return false
}

// Drop implements ReplicaStore.
func (m *Metered) Drop(now time.Duration, id object.ID) {
	m.drops.Add(1)
	m.inner.Drop(now, id)
}

// Contains implements ReplicaStore.
func (m *Metered) Contains(id object.ID) bool { return m.inner.Contains(id) }

// ServeCost implements ReplicaStore.
func (m *Metered) ServeCost(now time.Duration, id object.ID) time.Duration {
	m.serves.Add(1)
	cost := m.inner.ServeCost(now, id)
	m.costNanos.Add(int64(cost))
	return cost
}

// BytesUsed implements ReplicaStore.
func (m *Metered) BytesUsed() int64 { return m.inner.BytesUsed() }

// Replicas implements ReplicaStore.
func (m *Metered) Replicas() int { return m.inner.Replicas() }

// Clear implements ReplicaStore.
func (m *Metered) Clear(now time.Duration) { m.inner.Clear(now) }

// Stats implements ReplicaStore.
func (m *Metered) Stats(buf []LayerStats) []LayerStats {
	buf = append(buf, LayerStats{
		Label:     m.label,
		Creates:   m.creates.Load(),
		Drops:     m.drops.Load(),
		Serves:    m.serves.Load(),
		CostNanos: m.costNanos.Load(),
		Replicas:  int64(m.inner.Replicas()),
		BytesUsed: m.inner.BytesUsed(),
	})
	return m.inner.Stats(buf)
}
