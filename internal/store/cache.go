package store

import (
	"container/list"
	"time"

	"radar/internal/object"
)

// Cache is a bounded fast tier over an authoritative slow tier
// (write-through). Creates and drops go to both tiers; serves hit the fast
// tier when resident and otherwise pay the slow tier's cost and promote
// the replica, evicting the least-recently-used resident replica when the
// fast tier is full. Eviction order is a pure function of the serve
// sequence, so equal runs evict identically.
type Cache struct {
	fast     ReplicaStore
	slow     ReplicaStore
	capacity int        // max resident replicas in the fast tier (> 0)
	lru      *list.List // front = most recently used
	resident map[object.ID]*list.Element
	stats    LayerStats
}

// NewCache builds a cache admitting at most capacity replicas into fast;
// slow is authoritative for Contains and capacity decisions.
func NewCache(fast, slow ReplicaStore, capacity int) *Cache {
	if capacity <= 0 {
		capacity = 1
	}
	return &Cache{fast: fast, slow: slow, capacity: capacity,
		lru: list.New(), resident: make(map[object.ID]*list.Element)}
}

// Create implements ReplicaStore: write-through to the slow tier, then
// promote into the fast tier.
func (c *Cache) Create(id object.ID) bool {
	if !c.slow.Create(id) {
		return false
	}
	c.stats.Creates++
	c.promote(id)
	return true
}

// Drop implements ReplicaStore: removes the replica from both tiers.
func (c *Cache) Drop(id object.ID) {
	c.stats.Drops++
	c.slow.Drop(id)
	if el, ok := c.resident[id]; ok {
		c.lru.Remove(el)
		delete(c.resident, id)
		c.fast.Drop(id)
	}
}

// Contains implements ReplicaStore: the slow tier is authoritative.
func (c *Cache) Contains(id object.ID) bool { return c.slow.Contains(id) }

// ServeCost implements ReplicaStore: a resident replica serves at the fast
// tier's cost; a miss pays the slow tier and promotes.
func (c *Cache) ServeCost(id object.ID) time.Duration {
	c.stats.Serves++
	if el, ok := c.resident[id]; ok {
		c.stats.Hits++
		c.lru.MoveToFront(el)
		cost := c.fast.ServeCost(id)
		c.stats.CostNanos += int64(cost)
		return cost
	}
	c.stats.Misses++
	cost := c.slow.ServeCost(id)
	c.stats.CostNanos += int64(cost)
	c.promote(id)
	return cost
}

// promote makes id resident in the fast tier, evicting the LRU resident
// replica if the tier is full.
func (c *Cache) promote(id object.ID) {
	if el, ok := c.resident[id]; ok {
		c.lru.MoveToFront(el)
		return
	}
	if c.lru.Len() >= c.capacity {
		oldest := c.lru.Back()
		victim := oldest.Value.(object.ID)
		c.lru.Remove(oldest)
		delete(c.resident, victim)
		c.fast.Drop(victim)
		c.stats.Evictions++
	}
	if c.fast.Create(id) {
		c.resident[id] = c.lru.PushFront(id)
	}
}

// BytesUsed implements ReplicaStore: authoritative bytes live in the slow
// tier (the fast tier holds copies).
func (c *Cache) BytesUsed() int64 { return c.slow.BytesUsed() }

// Replicas implements ReplicaStore.
func (c *Cache) Replicas() int { return c.slow.Replicas() }

// Stats implements ReplicaStore.
func (c *Cache) Stats(buf []LayerStats) []LayerStats {
	s := c.stats
	s.Label = "cache"
	s.Replicas = int64(c.slow.Replicas())
	s.BytesUsed = c.BytesUsed()
	buf = append(buf, s)
	buf = c.fast.Stats(buf)
	return c.slow.Stats(buf)
}
