package protocol

import (
	"testing"
	"time"

	"radar/internal/object"
	"radar/internal/topology"
	"radar/internal/workload"
)

// scanElect is the election rule as one scan that asks every peer about
// id: the oracle electHost's load board has to reproduce, winner, reported
// load and found. It exists only here.
func scanElect(h *Host, report func(topology.NodeID, time.Duration, object.ID) (LoadReport, bool), now time.Duration, id object.ID, w float64) (best topology.NodeID, load float64, found bool) {
	bestRel := 0.0
	for i := range h.nodeBuf {
		p := topology.NodeID(i)
		if p == h.ID {
			continue
		}
		r, ok := report(p, now, id)
		if !ok || r.Has || (w > 0 && r.Halted) {
			continue
		}
		ceiling := r.Low + w*(r.High-r.Low)
		if rel := r.AcceptLoad / ceiling; r.AcceptLoad < ceiling && (!found || rel < bestRel) {
			best, load, bestRel, found = p, r.AcceptLoad, rel, true
		}
	}
	return best, load, found
}

// reportCounter wraps a host's Env.LoadReport over cluster c: it counts the
// queries by kind and by peer, and answers false for the peers in down.
type reportCounter struct {
	c              *cluster
	idless, withID int
	perPeer        map[topology.NodeID]int
	down           map[topology.NodeID]bool
}

func (rc *reportCounter) install(h *Host) {
	rc.perPeer = make(map[topology.NodeID]int)
	h.env.LoadReport = func(p topology.NodeID, now time.Duration, id object.ID) (LoadReport, bool) {
		if id < 0 {
			rc.idless++
		} else {
			rc.withID++
		}
		rc.perPeer[p]++
		return rc.answer(p, now, id)
	}
}

// answer is the uncounted report, which the oracle reads.
func (rc *reportCounter) answer(p topology.NodeID, now time.Duration, id object.ID) (LoadReport, bool) {
	if rc.down[p] {
		return LoadReport{}, false
	}
	return rc.c.hosts[p].LoadReport(now, id), true
}

// TestElectHostMatchesScan elects over seeded random fleets — loads that
// tie, weight-scaled watermarks, holders, halted hosts, down peers — and
// requires the board's answer to equal the oracle scan's, election after
// election inside one pass, with an accepted, refused or lost handshake to
// the winner between them.
func TestElectHostMatchesScan(t *testing.T) {
	const (
		numObjects = 5
		now        = 100 * time.Second
	)
	outcomes := map[CreateObjStatus]int{}
	for seed := int64(0); seed < 60; seed++ {
		rng := workload.Stream(seed, 0)
		w := []float64{0, 0.5, 1}[seed%3]
		params := DefaultParams()
		params.ReplicaFloor = 2
		params.AvailabilityWeight = w
		n := 3 + rng.Intn(18)
		c := newCluster(t, topology.Ring(n), params)
		c.red.SetReplicaFloor(params.ReplicaFloor)
		for i, h := range c.hosts {
			weight := []float64{0.5, 1, 2}[rng.Intn(3)]
			h.params = params.Weighted(weight)
			// Multiples of a tenth of the low watermark: relative loads tie
			// across weights, so the strict-< tie-break is exercised.
			c.loads[i].total = float64(rng.Intn(13)) * 0.1 * h.params.LowWatermark
			if rng.Intn(4) == 0 {
				h.est.OnAccept(0, c.loads[i].total, 0.1) // active since 0: halted at now
			}
			for id := object.ID(0); id < numObjects; id++ {
				if rng.Intn(3) == 0 {
					c.seed(id, topology.NodeID(i))
				}
			}
		}
		h := c.hosts[rng.Intn(n)]
		rc := reportCounter{c: c, down: map[topology.NodeID]bool{}}
		for k := rng.Intn(3); k > 0; k-- {
			rc.down[topology.NodeID(rng.Intn(n))] = true
		}
		rc.install(h)
		// The handshake transport: the verdict arrives, or the exchange is
		// lost after the callee ran, or lost before it ran.
		lose, elections := 0, 0
		h.env.SendCreateObj = func(at time.Duration, req CreateObjRequest, _ uint64) (CreateObjStatus, uint64, time.Duration) {
			switch lose {
			case 1:
				c.deliver(at, req)
				return CreateLost, 1, at
			case 2:
				return CreateLost, 1, at
			}
			if c.deliver(at, req) {
				return CreateAccepted, 0, at
			}
			return CreateRefused, 0, at
		}

		for round := 0; round < 12; round++ {
			id, ew := object.ID(rng.Intn(numObjects)), w
			if rng.Intn(4) == 0 {
				id, ew = -1, 0 // an offload-recipient election
			}
			wantBest, wantLoad, wantFound := scanElect(h, rc.answer, now, id, ew)
			best, report, found := h.electHost(now, id, ew)
			load := report.AcceptLoad
			if best != wantBest || load != wantLoad || found != wantFound {
				t.Fatalf("seed %d round %d (id %d, w %v): board elects (%d, %v, %v), scan elects (%d, %v, %v)",
					seed, round, id, ew, best, load, found, wantBest, wantLoad, wantFound)
			}
			elections++
			if !found {
				continue
			}
			method := Replicate
			if ew > 0 {
				method = Repair
			}
			lose = rng.Intn(4) % 3 // half the handshakes get their verdict back
			req := CreateObjRequest{From: h.ID, To: best, Method: method, Object: object.ID(rng.Intn(numObjects)), UnitLoad: rng.Float64() * 3, SrcAff: 1}
			status, _, _ := h.createObj(now, req, 0)
			outcomes[status]++
		}
		// A two-peer fleet whose winner keeps contending can cost the board
		// more queries than a scan of both peers; a larger fleet must save.
		if n-1 > 2 && rc.idless+rc.withID >= elections*(n-1) {
			t.Fatalf("seed %d: %d reports over %d elections among %d peers: the board saved nothing", seed, rc.idless+rc.withID, elections, n-1)
		}
	}
	for _, s := range []CreateObjStatus{CreateAccepted, CreateRefused, CreateLost} {
		if outcomes[s] == 0 {
			t.Errorf("no handshake ended with status %d: the property was not exercised after it", s)
		}
	}
}

// TestPassLoadReportCount counts the load reports one placement pass asks
// for: one id-less report per peer plus one per handshake, one
// object-specific report per would-be winner, none without an election, a
// down peer asked once, and a board that does not outlive its pass.
func TestPassLoadReportCount(t *testing.T) {
	// Host 0 of a floor-2 fleet holds k single-copy objects; its peers are
	// idle with loads rising by ID, so every election has one would-be
	// winner: the lowest-ID peer that is up.
	const n, k = 9, 6
	params := DefaultParams()
	params.ReplicaFloor = 2
	c := newCluster(t, topology.Ring(n), params)
	c.red.SetReplicaFloor(params.ReplicaFloor)
	for i := range c.hosts {
		c.loads[i].total = float64(i)
	}
	for id := 0; id < k; id++ {
		c.seed(object.ID(id), 0)
	}
	h := c.hosts[0]
	rc := reportCounter{c: c, down: map[topology.NodeID]bool{1: true}}
	rc.install(h)

	if pass := c.decide(0, 100*time.Second); pass.RepairReplications != k {
		t.Fatalf("RepairReplications = %d, want %d", pass.RepairReplications, k)
	}
	// Peer 2 wins every election (objects carry no load, so accepting does
	// not raise its estimate) and is asked again after each handshake but
	// the last; nobody else ever leads.
	if want := (n - 1) + (k - 1); rc.idless != want {
		t.Errorf("pass with %d elections asked %d id-less reports, want %d (N−1 and one per handshake followed by an election)", k, rc.idless, want)
	}
	if rc.withID != k {
		t.Errorf("pass with %d elections asked %d object-specific reports, want one per would-be winner", k, rc.withID)
	}
	if got := rc.perPeer[1]; got != 1 {
		t.Errorf("down peer asked %d times in one pass, want 1", got)
	}

	// A pass without an election asks nothing.
	rc.idless, rc.withID = 0, 0
	h.DecidePlacement(200 * time.Second)
	if rc.idless+rc.withID != 0 {
		t.Errorf("pass without an election asked %d reports", rc.idless+rc.withID)
	}

	// The next pass with elections starts from an empty board: every peer
	// is asked again, the down one included.
	for id := k; id < k+2; id++ {
		c.seed(object.ID(id), 0)
	}
	h.DecidePlacement(300 * time.Second)
	if want := (n - 1) + 1; rc.idless != want {
		t.Errorf("second pass asked %d id-less reports, want %d", rc.idless, want)
	}
	if got := rc.perPeer[1]; got != 2 {
		t.Errorf("down peer asked %d times over two electing passes, want 2", got)
	}
}

// BenchmarkRepairPass is one placement pass of a 53-host floor-2 fleet
// whose placing host holds 400 objects, half of them below the floor: 200
// repair elections. reports/elect counts every load report asked (board
// fills, would-be-winner queries, refreshes after handshakes) per election;
// asking every peer at every election makes it 52.
func BenchmarkRepairPass(b *testing.B) {
	const objects, under = 400, 200
	reports := 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		params := DefaultParams()
		params.ReplicaFloor = 2
		c := newCluster(b, topology.UUNET(), params)
		c.red.SetReplicaFloor(params.ReplicaFloor)
		rng := workload.Stream(1, 0)
		for j := range c.hosts {
			c.loads[j].total = rng.Float64() * 1.2 * params.LowWatermark
		}
		h := c.hosts[0]
		for id := object.ID(0); id < objects; id++ {
			c.seed(id, 0)
			c.loads[0].perObj[id] = 0.05
			if id >= under {
				c.seed(id, topology.NodeID(1+rng.Intn(len(c.hosts)-1)))
			}
		}
		rc := reportCounter{c: c}
		rc.install(h)
		b.StartTimer()
		h.DecidePlacement(100 * time.Second)
		b.StopTimer()
		if h.Stats.RepairReplications != under {
			b.Fatalf("RepairReplications = %d, want %d", h.Stats.RepairReplications, under)
		}
		reports += rc.idless + rc.withID
		b.StartTimer()
	}
	b.ReportMetric(float64(reports)/float64(b.N*under), "reports/elect")
}
