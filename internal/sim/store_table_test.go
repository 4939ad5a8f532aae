package sim

import (
	"testing"
	"time"

	"radar/internal/fault"
	"radar/internal/object"
	"radar/internal/protocol"
	"radar/internal/store"
	"radar/internal/topology"
	"radar/internal/workload"
)

// authReplicas is a stack's authoritative occupancy: the Replicas of its
// last layer, the authoritative tier.
func authReplicas(st *store.Stack) int {
	layers := st.Stats(nil)
	return int(layers[len(layers)-1].Replicas)
}

// unheldAdmits is a Fleet that counts the admissions of an object the
// admitting host does not hold, by the decision that took the replica
// away. It reads those from the run's own events: a host loses a replica
// only by a drop, and a drop followed at once by the same host's migration
// of the object is the migration handing its last affinity unit over.
type unheldAdmits struct {
	Fleet
	s        *Simulation
	admits   int64
	dropped  int64 // unheld since a Fig. 3 drop
	migrated int64 // unheld since a migration away
	gone     map[replica]string
	last     protocol.Event
}

// replica names one host's copy of an object.
type replica struct {
	h  topology.NodeID
	id object.ID
}

// watch is the run's ExtraObserver: it notes why each replica went.
func (f *unheldAdmits) watch(e protocol.Event) {
	r := replica{topology.NodeID(e.From), object.ID(e.Object)}
	switch {
	case e.Kind == protocol.EventDrop:
		f.gone[r] = protocol.EventDrop
	case e.Kind == protocol.EventMigrate && f.last.Kind == protocol.EventDrop &&
		f.last.From == e.From && f.last.Object == e.Object && f.last.At == e.At:
		f.gone[r] = protocol.EventMigrate
	}
	f.last = e
}

func (f *unheldAdmits) Admit(now time.Duration, h, g topology.NodeID, id object.ID) (time.Duration, Outcome) {
	f.admits++
	if !f.s.mem.machines[h].Host.Has(id) {
		switch f.gone[replica{h, id}] {
		case protocol.EventDrop:
			f.dropped++
		case protocol.EventMigrate:
			f.migrated++
		default:
			panic("an unheld admission with no decision that took the replica")
		}
	}
	return f.Fleet.Admit(now, h, g, id)
}

// runCountingUnheld runs cfg with its fleet wrapped in an unheldAdmits.
func runCountingUnheld(t *testing.T, cfg Config) (*Simulation, *unheldAdmits, *Results) {
	t.Helper()
	f := &unheldAdmits{gone: map[replica]string{}}
	cfg.ExtraObserver = protocol.Recorder(f.watch)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.Fleet, f.s = s.fleet, s
	s.fleet = f
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return s, f, res
}

// churnShaped arms cfg like sim-churn: the Figure 9 watermarks, floor 2,
// availability weight 0.5, a lossy control plane and a 20 s crash every
// 30 s.
func churnShaped(cfg *Config) {
	cfg.Protocol = protocol.HighLoadParams()
	cfg.Protocol.ReplicaFloor = 2
	cfg.Protocol.AvailabilityWeight = 0.5
	cfg.Faults = fault.Spec{MsgDrop: 0.2, MsgDup: 0.05, MsgDelay: 20 * time.Millisecond}
	for k := 1; k <= 6; k++ {
		n, at := topology.NodeID(7*k%53), time.Duration(30*k)*time.Second
		cfg.Faults.Events = append(cfg.Faults.Events,
			fault.Event{Kind: fault.HostDown, At: at, Node: n},
			fault.Event{Kind: fault.HostUp, At: at + 20*time.Second, Node: n})
	}
}

// TestStoreMatchesObjectTable runs a short sim-churn-shaped run — hot
// sites at the Figure 9 watermarks, floor 2, a lossy control plane and a
// crash every 30 s — over a plain and a cached stack, and then holds every
// machine's stack occupancy against its host's object table: the table
// names the replicas, the stack only counts them, and every create and
// drop must have reached it.
//
// Each row also pins a known defect (DESIGN §3.5): a request chosen for a
// replica that is migrated or dropped while the request travels is still
// admitted and served by a host that no longer holds the object, and
// under cache(...) the serve makes the object resident. dropped and
// migrated count those admissions today by the decision that took the
// replica; ROADMAP item 17(b), a host serving only what it holds, brings
// both rows to zero.
func TestStoreMatchesObjectTable(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	for _, tc := range []struct {
		spec              string
		dropped, migrated int64
	}{
		{"mem", 0, 10},
		{"cache(mem:8,disk:1ms)", 1, 11},
	} {
		spec := tc.spec
		t.Run(spec, func(t *testing.T) {
			gen, err := workload.NewHotSites(testUniverse, topology.UUNET().NumNodes(), 0.9, 3)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig(gen, 3)
			cfg.Universe = testUniverse
			cfg.Duration = 4 * time.Minute
			cfg.Store = mustStore(t, spec)
			churnShaped(&cfg)
			s, admits, res := runCountingUnheld(t, cfg)
			if admits.dropped != tc.dropped || admits.migrated != tc.migrated {
				t.Errorf("of %d admissions, %d were of an object the host dropped and %d of one it migrated away, want the known %d and %d",
					admits.admits, admits.dropped, admits.migrated, tc.dropped, tc.migrated)
			}
			if res.Counters.RepairReplications == 0 || res.Counters.Drops == 0 {
				t.Fatalf("the run repaired %d and dropped %d replicas: the tables never churned",
					res.Counters.RepairReplications, res.Counters.Drops)
			}
			for n, m := range s.mem.machines {
				if got, want := authReplicas(m.Store), m.Host.NumObjects(); got != want {
					t.Fatalf("machine %d: %d replicas in the stack, %d in the host table", n, got, want)
				}
			}
		})
	}
}

// TestUnheldAdmissionsTable1 pins the same known defect on the four
// Table 1 workloads, fault-free, at seed 1 and the quick scale (2,000
// objects, half the suite's durations): requests admitted by a host that
// dropped or migrated the object away while they traveled. Item 17(b)
// brings every row to zero; DESIGN §3.5 item 8 quotes the full-scale
// counts.
func TestUnheldAdmissionsTable1(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	u := object.Universe{Count: 2000, SizeBytes: 12 << 10}
	for _, tc := range []struct {
		workload          string
		dur               time.Duration
		dropped, migrated int64
	}{
		{"zipf", 20 * time.Minute, 1, 86},
		{"hot-sites", 55 * time.Minute / 2, 2, 110},
		{"hot-pages", 20 * time.Minute, 0, 104},
		{"regional", 20 * time.Minute, 0, 76},
	} {
		t.Run(tc.workload, func(t *testing.T) {
			gen, err := workload.Named(tc.workload, u, topology.UUNET(), 1)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig(gen, 1)
			cfg.Universe, cfg.Duration = u, tc.dur
			_, admits, _ := runCountingUnheld(t, cfg)
			if admits.dropped != tc.dropped || admits.migrated != tc.migrated {
				t.Errorf("of %d admissions, %d were of an object the host dropped and %d of one it migrated away, want the known %d and %d",
					admits.admits, admits.dropped, admits.migrated, tc.dropped, tc.migrated)
			}
		})
	}
}

// TestSeededReplicasCountInTheStore: seeding fills a host past a one-replica
// cap, and every seeded replica counts in the stack, so occupancy never
// trails the host's table.
func TestSeededReplicasCountInTheStore(t *testing.T) {
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
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for n, m := range s.mem.machines {
		if got, want := authReplicas(m.Store), m.Host.NumObjects(); got != want || want < 2 {
			t.Errorf("machine %d: %d replicas in the stack, %d in the host table (want more than one)", n, got, want)
		}
	}
}
