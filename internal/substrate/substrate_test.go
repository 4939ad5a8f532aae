package substrate

import (
	"sync"
	"testing"

	"radar/internal/topology"
)

// TestSharedDeduplicatesEqualTopologies: structurally equal topologies —
// even when built as distinct values — must share one substrate, and
// structurally different ones must not.
func TestSharedDeduplicatesEqualTopologies(t *testing.T) {
	a := Shared(topology.Ring(8))
	b := Shared(topology.Ring(8))
	if a != b {
		t.Fatal("two structurally equal topologies produced distinct substrates")
	}
	if a.Topo == nil || a.Routes == nil {
		t.Fatal("cached substrate is missing its topology or routing table")
	}
	if c := Shared(topology.Line(5)); c == a {
		t.Fatal("different topologies share a substrate")
	}
}

// TestUUNETIsSharedCacheEntry: the UUNET fast path must resolve to the
// same substrate as the generic cache lookup.
func TestUUNETIsSharedCacheEntry(t *testing.T) {
	if UUNET() != Shared(topology.UUNET()) {
		t.Fatal("UUNET() and Shared(topology.UUNET()) disagree")
	}
	if UUNET() != UUNET() {
		t.Fatal("UUNET() is not stable across calls")
	}
}

// TestCacheSizeCountsDistinctStructures: a novel structure grows the
// cache by exactly one, and repeat lookups do not grow it.
func TestCacheSizeCountsDistinctStructures(t *testing.T) {
	cacheSize := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(cache)
	}
	topo := topology.Ring(31) // size unused by other tests in this package
	before := cacheSize()
	Shared(topo)
	if got := cacheSize(); got != before+1 {
		t.Fatalf("cache size %d after first lookup, want %d", got, before+1)
	}
	Shared(topology.Ring(31))
	if got := cacheSize(); got != before+1 {
		t.Fatalf("cache size %d after repeat lookup, want %d", got, before+1)
	}
}

// TestFingerprintIdentity: equal structures share a fingerprint;
// different structures get different ones (FNV-64a over the canonical
// key; a collision between these tiny fixed inputs would be a bug).
func TestFingerprintIdentity(t *testing.T) {
	a := Shared(topology.Ring(8))
	b := Shared(topology.Ring(8))
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("equal topologies have different fingerprints")
	}
	if c := Shared(topology.Line(5)); c.Fingerprint() == a.Fingerprint() {
		t.Fatal("different topologies share a fingerprint")
	}
}

// TestConcurrentSharedSingleFlight: many goroutines racing on the same
// new structure must all receive the identical substrate (run with -race
// to also check the cache's internal synchronization).
func TestConcurrentSharedSingleFlight(t *testing.T) {
	const goroutines = 16
	results := make([]*Substrate, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Each goroutine builds its own topology value so the cache
			// must deduplicate by structure, not pointer.
			results[i] = Shared(topology.Ring(17))
		}(i)
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if results[i] != results[0] {
			t.Fatalf("goroutine %d received a different substrate", i)
		}
	}
}
