package protocol

import (
	"maps"
	"slices"
	"testing"
	"time"

	"radar/internal/object"
	"radar/internal/topology"
)

// yieldOnPeerCalls makes h's SendCreateObj and LoadReport yield the way a
// live node's do: before each call goes out, a peer's CreateObj runs on h,
// for a fresh object below every object h held before (IDs 1, 2, ...), so
// the state insert moves every state the pass may be holding. It returns
// the objects those CreateObjs added and the objects of h's handshakes, in
// the order they were sent.
func yieldOnPeerCalls(t *testing.T, h *Host) (added, sent *[]object.ID) {
	added, sent = new([]object.ID), new([]object.ID)
	yield := func(now time.Duration) {
		id := object.ID(len(*added) + 1)
		if !h.CreateObj(now, CreateObjRequest{From: 1, To: h.ID, Method: Replicate, Object: id, SrcAff: 1}) {
			t.Fatalf("the idle host refused object %d during a yield", id)
		}
		*added = append(*added, id)
	}
	send, report := h.env.SendCreateObj, h.env.LoadReport
	h.env.SendCreateObj = func(now time.Duration, req CreateObjRequest, tok uint64) (CreateObjStatus, uint64, time.Duration) {
		yield(now)
		*sent = append(*sent, req.Object)
		return send(now, req, tok)
	}
	h.env.LoadReport = func(p topology.NodeID, now time.Duration, id object.ID) (LoadReport, bool) {
		yield(now)
		return report(p, now, id)
	}
	return added, sent
}

// holdings is what h holds, by ID, with each replica's affinity.
func holdings(h *Host) map[object.ID]int {
	out := map[object.ID]int{}
	h.EachObject(func(id object.ID, aff int) { out[id] = aff })
	return out
}

// TestPassAcrossYields: a placement pass whose handshakes and load queries
// yield to a peer's CreateObj on the same host (Env) keeps no state across
// them. The accepted migration's affinity decrement lands on the migrated
// object, every object held before the pass is visited exactly once (a
// cold one loses one affinity unit, one under the floor gets one repair
// handshake), and nothing else changes but the yields' own additions.
func TestPassAcrossYields(t *testing.T) {
	held := []object.ID{100, 200, 300, 400} // above every ID a yield adds
	const hot = object.ID(200)

	t.Run("migration", func(t *testing.T) {
		c := newCluster(t, topology.Line(6), DefaultParams())
		h := c.hosts[0]
		want := map[object.ID]int{}
		for _, id := range held {
			c.seed(id, 0)
			h.objs.get(id).aff = 3
			c.red.NotifyReplicaChange(id, 0, 3)
			want[id] = 2 // a cold object loses one unit; the migration takes one
		}
		// 70 of 100 requests from the far end: the hot object migrates one
		// affinity unit to node 5 (TestGeoMigrationToFarthestQualified).
		for i := 0; i < 100; i++ {
			g := topology.NodeID(5)
			if i < 30 {
				g = 0
			}
			h.OnRequest(hot, g)
		}
		added, sent := yieldOnPeerCalls(t, h)

		pass := c.decide(0, 100*time.Second)
		if pass.GeoMigrations != 1 || pass.AffinityDecrs != 4 || pass.Accepted != int64(len(*added)) || pass.Drops != 0 {
			t.Fatalf("pass counted %+v, want one geo migration, 4 affinity decrements, %d acceptances and no drop", pass, len(*added))
		}
		if !slices.Equal(*sent, []object.ID{hot}) || c.hosts[5].Affinity(hot) != 1 {
			t.Fatalf("handshakes for %v, node 5 holds the hot object at affinity %d; want one for %d, held at 1", *sent, c.hosts[5].Affinity(hot), hot)
		}
		for _, id := range *added {
			want[id] = 1
		}
		if got := holdings(h); !maps.Equal(got, want) {
			t.Fatalf("host holds %v after the pass, want %v", got, want)
		}
		c.checkSubsetInvariant(t)
	})

	t.Run("repair", func(t *testing.T) {
		params := DefaultParams()
		params.ReplicaFloor = 2
		c := newCluster(t, topology.Line(6), params)
		c.red.SetReplicaFloor(params.ReplicaFloor)
		h := c.hosts[0]
		want := map[object.ID]int{}
		for _, id := range held {
			c.seed(id, 0)
			want[id] = 1
			for i := 0; i < 10; i++ { // between the thresholds, all local: Fig. 3 leaves it
				h.OnRequest(id, 0)
			}
		}
		added, sent := yieldOnPeerCalls(t, h)

		pass := c.decide(0, 100*time.Second)
		if !slices.Equal(*sent, held) {
			t.Fatalf("repair handshakes for %v, want one for each object held before the pass, %v", *sent, held)
		}
		if pass.RepairReplications != int64(len(held)) || pass.Accepted != int64(len(*added)) || pass.fig3Moves() != 0 {
			t.Fatalf("pass counted %+v, want %d repairs, %d acceptances and no Fig. 3 move", pass, len(held), len(*added))
		}
		for _, id := range held {
			if n := len(c.red.ReplicaHosts(id, nil)); n != 2 {
				t.Errorf("object %d has %d replicas after the repair, want 2", id, n)
			}
		}
		for _, id := range *added {
			want[id] = 1
		}
		if got := holdings(h); !maps.Equal(got, want) {
			t.Fatalf("host holds %v after the pass, want %v", got, want)
		}
		c.checkSubsetInvariant(t)
	})
}
