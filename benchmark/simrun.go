package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"radar/internal/object"
	"radar/internal/protocol"
	"radar/internal/scenario"
	"radar/internal/sim"
	"radar/internal/topology"
)

// buildSimConfig parses the workload's DSL into the simulation it
// describes. The bigrun pair swaps the DSL's UUNET backbone for
// radar-bench's transit-stub one, which the DSL cannot name.
func buildSimConfig(w workloadDef, seed int64, quick bool) (sim.Config, error) {
	sp, err := scenario.ParseSpec(w.dsl(seed, quick))
	if err != nil {
		return sim.Config{}, err
	}
	cfg, err := sp.Config()
	if err != nil {
		return sim.Config{}, err
	}
	if w.Big {
		cfg.Topo = topology.TransitStub(4, 4, 15)
	}
	cfg.Shards = w.Shards
	return cfg, nil
}

// setupSim is a simulator workload's set-up: parse the DSL, build the
// substrate and routing table (sim.New does, through the substrate cache),
// seed the initial placement.
func setupSim(o runOpts) (sim.Config, *sim.Simulation, error) {
	cfg, err := buildSimConfig(o.Workload, o.Seed, o.Quick)
	if err != nil {
		return sim.Config{}, nil, err
	}
	s, err := sim.New(cfg)
	return cfg, s, err
}

// resultsHash is the FNV-64a of the JSON Results, radar-bench's identity
// for a run's full output.
func resultsHash(res *sim.Results) (string, error) {
	data, err := json.Marshal(res)
	if err != nil {
		return "", err
	}
	h := fnv.New64a()
	h.Write(data)
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// measured is one whole run of a repeating workload — a Simulation.Run or a
// driver-paced replay — with what it cost the process.
type measured struct {
	use usage
	res *sim.Results
}

// simRun is one measured Simulation.Run.
type simRun struct {
	measured
	hash string
}

// measureSim runs s and reports what the run cost. The garbage left by
// set-up or the previous run is collected first so it is not charged here.
// harnessBytes is the heap the benchmark itself holds.
func measureSim(s *sim.Simulation, harnessBytes uint64) (simRun, error) {
	runtime.GC()
	m := startMeter()
	res, err := s.Run()
	use := m.Stop(harnessBytes)
	runtime.KeepAlive(s) // the survivors Stop measures include the run's final state
	if err != nil {
		return simRun{}, err
	}
	hash, err := resultsHash(res)
	if err != nil {
		return simRun{}, err
	}
	return simRun{measured{use, res}, hash}, nil
}

// simRequests is the number of simulated requests a run carried to an
// outcome: served, or lost to a modelled fault or client timeout.
func simRequests(res *sim.Results) int64 {
	return res.TotalServed + res.FailedRequests + res.TimedOutRequests
}

// moveCounter counts placement decisions through Config.ExtraObserver.
type moveCounter struct {
	moves, drops, refusals, deferred int64
}

func (c *moveCounter) OnMigrate(time.Duration, object.ID, topology.NodeID, topology.NodeID, protocol.MoveKind) {
	c.moves++
}
func (c *moveCounter) OnReplicate(time.Duration, object.ID, topology.NodeID, topology.NodeID, protocol.MoveKind) {
	c.moves++
}
func (c *moveCounter) OnDrop(time.Duration, object.ID, topology.NodeID) { c.drops++ }
func (c *moveCounter) OnRefuse(time.Duration, object.ID, topology.NodeID, topology.NodeID, protocol.Method) {
	c.refusals++
}
func (c *moveCounter) OnDefer(time.Duration, object.ID, topology.NodeID, topology.NodeID, protocol.Method) {
	c.deferred++
}

// minRepeats is the fewest whole runs a repeating workload makes in one
// process. The first run of a process pays for growing the heap from
// nothing (hundreds of MB of first-touch page faults on sim-bigrun, where it
// runs at two thirds of the later runs' speed), so a lone run would report
// the operating system's cost, not the simulator's; of three, the median
// is a warm one.
const minRepeats = 3

// repeatAgain decides whether a repeating workload starts another whole
// run: always up to minRepeats, then while one more of the mean length seen
// so far still fits in the requested seconds.
func repeatAgain(done int, elapsed time.Duration, seconds float64) bool {
	if done < minRepeats {
		return true
	}
	mean := elapsed / time.Duration(done)
	return (elapsed + mean).Seconds() <= 1.1*seconds
}

// reportRepeats turns a repeating workload's runs, one block each, into the
// end-to-end metrics: the median run's throughput in reference seconds —
// the cold first run drops out — and the medians of the allocation and
// heap metrics, per request attempted.
func reportRepeats(runs []measured, blocks []block, rep *report) {
	var allocs, bytes, heap []float64
	for _, r := range runs {
		requests := float64(max(1, simRequests(r.res)))
		allocs = append(allocs, float64(r.use.Allocs)/requests)
		bytes = append(bytes, float64(r.use.Bytes)/requests)
		heap = append(heap, r.use.LiveHeapMB)
		rep.attempted += simRequests(r.res)
	}
	n := len(runs)
	reportBlocks(blocks, rep)
	rep.set("allocs_per_req", median(allocs), n)
	rep.set("bytes_per_req", median(bytes), n)
	rep.set("live_heap_mb", median(heap), n)
}

// runSimWorkload measures a simulator workload: whole runs of the same
// composition, repeated while another fits in the requested seconds, with
// laps of the reference loop inside them.
func runSimWorkload(o runOpts, ref *refLoop, rep *report) error {
	cfg, err := buildSimConfig(o.Workload, o.Seed, o.Quick)
	if err != nil {
		return err
	}
	gen := &lapGenerator{Generator: cfg.Workload, ref: ref}
	cfg.Workload = gen
	s, err := sim.New(cfg)
	if err != nil {
		return err
	}
	var runs []simRun
	var blocks []block
	var elapsed time.Duration
	for {
		gen.begin()
		r, err := measureSim(s, ref.bytes())
		if err != nil {
			return err
		}
		runs = append(runs, r)
		blocks = append(blocks, gen.end(r.res.TotalServed, r.use.Wall))
		elapsed += r.use.Wall
		if !repeatAgain(len(runs), elapsed, o.Seconds) {
			break
		}
		if s, err = sim.New(cfg); err != nil {
			return err
		}
	}

	costs := make([]measured, len(runs))
	for i, r := range runs {
		costs[i] = r.measured
	}
	reportRepeats(costs, blocks, rep)
	rep.hash = runs[0].hash
	checkSimRuns(o, runs, rep)
	return nil
}

// pinned reports whether the run's results hash is pinned in the spec:
// seed 1 at full scale.
func pinned(o runOpts) bool { return o.Seed == 1 && !o.Quick }

// checkSimRuns verifies the runs' outputs: invariants hold, every repeat of
// the same composition hashes the same, and seed 1 at full scale hashes to
// the pinned value. The bigrun pair shares one pinned hash, so at seed 1
// that also proves sharded equals serial; at other seeds the traced run
// compares against serialReference.
func checkSimRuns(o runOpts, runs []simRun, rep *report) {
	w := o.Workload
	for i, r := range runs {
		if r.res.InvariantsError != nil {
			rep.problem("%s run %d: invariants: %v", w.Name, i, r.res.InvariantsError)
		}
		if r.res.TotalServed == 0 {
			rep.problem("%s run %d served nothing", w.Name, i)
		}
		if r.hash != runs[0].hash {
			rep.problem("%s run %d hash %s differs from run 0 hash %s: the run is not deterministic", w.Name, i, r.hash, runs[0].hash)
		}
	}
	if pinned(o) && runs[0].hash != w.PinnedHash {
		rep.problem("%s results hash %s, pinned %s", w.Name, runs[0].hash, w.PinnedHash)
	}
}

// serialReference runs cfg on the serial engine.
func serialReference(cfg sim.Config) (simRun, error) {
	cfg.Shards = 0
	s, err := sim.New(cfg)
	if err != nil {
		return simRun{}, err
	}
	return measureSim(s, 0)
}
