package sim

import (
	"time"

	"radar/internal/consistency"
	"radar/internal/object"
	"radar/internal/simnet"
	"radar/internal/topology"
	"radar/internal/workload"
)

// scheduleUpdates drives §5 provider-write injection: writes arrive at
// objects' primary copies at a fixed global rate and propagate to the
// other replicas asynchronously — immediately per write, or batched on a
// flush timer using the epidemic-style batching the paper references.
// Propagated bytes are charged as protocol overhead.
func (s *Simulation) scheduleUpdates() error {
	rate := s.cfg.Updates.RatePerSec
	if rate <= 0 {
		return nil
	}
	rng := workload.Stream(s.cfg.Seed, 0x0BDA7E5)
	spacing := time.Duration(float64(time.Second) / rate)

	err := s.every(spacing, spacing, func(now time.Duration) {
		id := object.ID(rng.Intn(s.cfg.Universe.Count))
		s.cfg.Consistency.Update(id)
		s.updatesInjected++
		if s.cfg.Updates.Mode == consistency.Immediate {
			s.flushUpdates(now, id)
		}
	})
	if err != nil || s.cfg.Updates.Mode != consistency.Batched {
		return err
	}
	interval := s.cfg.Updates.BatchInterval
	return s.every(interval, interval, func(now time.Duration) {
		// Flush every object with pending writes. Objects are visited
		// in ID order for determinism; Flush clears the pending set.
		for i := 0; i < s.cfg.Universe.Count; i++ {
			id := object.ID(i)
			if s.cfg.Consistency.Pending(id) > 0 {
				s.flushUpdates(now, id)
			}
		}
	})
}

// flushUpdates propagates an object's pending writes from its primary to
// every other recorded replica, charging one transfer per replica.
func (s *Simulation) flushUpdates(now time.Duration, id object.ID) {
	reps := s.mem.redirectorFor(id).Replicas(id)
	hosts := make([]topology.NodeID, len(reps))
	for i, r := range reps {
		hosts[i] = r.Host
	}
	size := s.cfg.Updates.SizeBytes
	if size <= 0 {
		size = int64(s.cfg.Universe.SizeBytes)
	}
	for _, p := range s.cfg.Consistency.Flush(id, hosts) {
		s.net.Transfer(now, s.routes.Path(p.From, p.To), size, simnet.Overhead)
		s.updatesPropagated++
	}
}
