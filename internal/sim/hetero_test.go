package sim

import (
	"testing"
	"time"

	"radar/internal/object"
	"radar/internal/protocol"
	"radar/internal/store"
	"radar/internal/workload"
)

// mustStore parses a store-stack DSL string.
func mustStore(t *testing.T, dsl string) store.Spec {
	t.Helper()
	sp, err := store.ParseSpec(dsl)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestHostWeightsValidation(t *testing.T) {
	gen, err := workload.NewUniform(testUniverse)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t, gen, time.Minute)
	cfg.HostWeights = []float64{1, 2} // wrong length
	if _, err := New(cfg); err == nil {
		t.Error("wrong-length weights accepted")
	}
	cfg = testConfig(t, gen, time.Minute)
	w := make([]float64, 53)
	for i := range w {
		w[i] = 1
	}
	w[5] = 0
	cfg.HostWeights = w
	if _, err := New(cfg); err == nil {
		t.Error("zero weight accepted")
	}
}

func TestHeterogeneousFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	gen, err := workload.NewHotPages(testUniverse, 0.1, 0.9, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t, gen, 15*time.Minute)
	weights := make([]float64, 53)
	for i := range weights {
		if i%2 == 0 {
			weights[i] = 2 // strong hosts
		} else {
			weights[i] = 0.5 // weak hosts
		}
	}
	cfg.HostWeights = weights
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Watermarks scale with weight.
	if got := s.Hosts()[0].Params().HighWatermark; got != 2*cfg.Protocol.HighWatermark {
		t.Fatalf("strong host hw = %v, want doubled", got)
	}
	if got := s.Hosts()[1].Params().LowWatermark; got != 0.5*cfg.Protocol.LowWatermark {
		t.Fatalf("weak host lw = %v, want halved", got)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.InvariantsError != nil {
		t.Fatal(res.InvariantsError)
	}
	// No weak host may settle above its own scaled high watermark; the
	// system still dissolves pressure with heterogeneous capacity.
	for i, srv := range s.Servers() {
		hw := s.Hosts()[i].Params().HighWatermark
		if srv.Load() > hw*1.3 {
			t.Errorf("host %d settled at %.1f, far above its scaled hw %.1f", i, srv.Load(), hw)
		}
	}
	// Strong hosts should end up holding more objects than weak ones on
	// average.
	strongObjs, weakObjs := 0, 0
	for i, h := range s.Hosts() {
		if i%2 == 0 {
			strongObjs += h.NumObjects()
		} else {
			weakObjs += h.NumObjects()
		}
	}
	if strongObjs <= weakObjs {
		t.Errorf("strong hosts hold %d objects vs weak %d; want more on strong", strongObjs, weakObjs)
	}
}

func TestStorageCapacityRefusals(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	gen, err := workload.NewHotPages(testUniverse, 0.1, 0.9, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t, gen, 15*time.Minute)
	// ~38 objects per host initially; a cap of 45 leaves little headroom.
	cfg.Store = mustStore(t, "mem:45")
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.InvariantsError != nil {
		t.Fatal(res.InvariantsError)
	}
	var storageRefusals int64
	for _, hs := range res.HostStats {
		storageRefusals += hs.RefusedStorage
	}
	if storageRefusals == 0 {
		t.Error("tight storage produced no storage refusals")
	}
	for i, h := range s.Hosts() {
		if h.NumObjects() > 45 {
			t.Errorf("host %d stores %d objects, capacity 45", i, h.NumObjects())
		}
	}
	// Replication is throttled relative to the uncapped run but the
	// system still functions.
	if res.AvgReplicas <= 1 {
		t.Error("no replication at all under storage cap")
	}
}

func TestStorageCapAllowsAffinityIncrement(t *testing.T) {
	gen, err := workload.NewUniform(testUniverse)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t, gen, time.Minute)
	cfg.Store = mustStore(t, "mem:1")
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Host 0 is full (seeding ignores the store's verdict: the cap only
	// guards CreateObj). An affinity increment on an object it already has
	// occupies no extra storage and must still be accepted.
	h := s.Hosts()[0]
	var objs []object.ID
	h.EachObject(func(id object.ID, _ int) { objs = append(objs, id) })
	if len(objs) == 0 {
		t.Fatal("host 0 has no seeded objects")
	}
	if !h.CreateObj(time.Second, protocol.CreateObjRequest{Method: protocol.Replicate, Object: objs[0], UnitLoad: 0.1, SrcAff: 1, From: 1}) {
		t.Fatal("affinity increment refused under storage cap")
	}
	if h.Affinity(objs[0]) != 2 {
		t.Fatalf("affinity = %d, want 2", h.Affinity(objs[0]))
	}
}
