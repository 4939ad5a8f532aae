// Package server models a hosting server (paper §2, §2.1, §6.1): a
// first-come-first-served queue with fixed service rate, and load
// measurement as the rate of serviced requests averaged over a measurement
// interval, attributed per object proportionally to per-object service.
package server

import (
	"fmt"
	"math"
	"time"

	"radar/internal/object"
)

// Config parameterizes a server.
type Config struct {
	// CapacityRPS is the service rate in requests/sec (Table 1: 200).
	CapacityRPS float64
}

// MeasurementInterval is the load averaging window (§2.1: 20 s).
const MeasurementInterval = 20 * time.Second

// DefaultConfig returns Table 1 server parameters.
func DefaultConfig() Config {
	return Config{CapacityRPS: 200}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.CapacityRPS <= 0 {
		return fmt.Errorf("server: capacity %v must be positive", c.CapacityRPS)
	}
	return nil
}

// Server is one hosting server's queueing and load-measurement state.
// It implements protocol.LoadSource.
type Server struct {
	serviceTime time.Duration

	busyUntil time.Duration

	// Current (open) interval accumulation. The per-object counts hold
	// only the objects served, so they follow the work done, not the
	// universe. They are exact whenever a method of the server reads them:
	// OnServed only logs the ID, and settle charges the log when it is
	// full and first thing in CloseInterval, their one reader.
	intervalStart time.Duration
	served        int64
	servedLog     []uint32 // served, not yet charged
	open          countTable

	// Last completed interval's measurements; ObjectLoad divides a count
	// in closed by closedSecs.
	measuredLoad float64
	closed       countTable
	closedSecs   float64

	// Lifetime counters.
	totalServed int64
	maxQueueLen int
	queueLen    int
}

// New builds a server.
func New(cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Server{
		serviceTime: time.Duration(float64(time.Second) / cfg.CapacityRPS),
		servedLog:   make([]uint32, 0, servedLogCap),
	}, nil
}

// Enqueue admits a request arriving at now into the FCFS queue and returns
// its service completion time. storageCost is the extra service latency
// the replica-storage backend charges for this read (zero for resident
// memory); it extends the request's occupancy of the server, so slow
// tiers back up the FCFS queue exactly like slow service. The caller
// schedules the completion event and calls OnServed there.
func (s *Server) Enqueue(now time.Duration, storageCost time.Duration) time.Duration {
	start := now
	if s.busyUntil > start {
		start = s.busyUntil
	}
	done := start + s.serviceTime + storageCost
	s.busyUntil = done
	s.queueLen++
	if s.queueLen > s.maxQueueLen {
		s.maxQueueLen = s.queueLen
	}
	return done
}

// servedLogCap bounds a server's log of served requests (see settle).
const servedLogCap = 64

// OnServed records the completion of a request for id. The scalar counters
// move now, because Stats and QueueLen read them at any time; the
// per-object charge waits in the log for settle.
func (s *Server) OnServed(id object.ID) {
	s.served++
	s.totalServed++
	if s.queueLen > 0 {
		s.queueLen--
	}
	if len(s.servedLog) == servedLogCap {
		s.settle()
	}
	s.servedLog = append(s.servedLog, uint32(id))
}

// settle charges every logged request to its object's count, in service
// order, and empties the log.
func (s *Server) settle() {
	for _, id := range s.servedLog {
		s.open.inc(id)
	}
	s.servedLog = s.servedLog[:0]
}

// CloseInterval completes the measurement interval ending at now: the
// measured load becomes served/intervalSeconds, per-object loads are
// attributed proportionally to per-object service, and a new interval
// opens. It returns the start time of the interval just closed, which the
// protocol layer feeds to its load estimator.
func (s *Server) CloseInterval(now time.Duration) (closedStart time.Duration) {
	s.settle()
	closedStart = s.intervalStart
	secs := (now - s.intervalStart).Seconds()
	if secs <= 0 {
		return closedStart
	}
	s.measuredLoad = float64(s.served) / secs
	s.closedSecs = secs
	s.open, s.closed = countTable{slots: s.closed.slots}, s.open
	clear(s.open.slots)
	s.served = 0
	s.intervalStart = now
	return closedStart
}

// Load returns the measured total load (requests/sec) of the last
// completed interval. It implements protocol.LoadSource.
func (s *Server) Load() float64 { return s.measuredLoad }

// ObjectLoad returns the measured load attributed to id over the last
// completed interval, 0 for an ID it did not serve. It implements
// protocol.LoadSource.
func (s *Server) ObjectLoad(id object.ID) float64 {
	if s.closed.n == 0 || uint64(id) > math.MaxUint32 { // negative, or past every logged ID
		return 0
	}
	if n := s.closed.slot(uint32(id)).cnt; n != 0 {
		return float64(n) / s.closedSecs
	}
	return 0
}

// QueueDelay returns how long a request arriving at now would wait before
// service begins.
func (s *Server) QueueDelay(now time.Duration) time.Duration {
	if s.busyUntil <= now {
		return 0
	}
	return s.busyUntil - now
}

// QueueLen returns the number of requests admitted but not yet completed.
func (s *Server) QueueLen() int { return s.queueLen }

// MaxQueueLen returns the high-water mark of the queue length.
func (s *Server) MaxQueueLen() int { return s.maxQueueLen }

// TotalServed returns the lifetime number of serviced requests.
func (s *Server) TotalServed() int64 { return s.totalServed }

// countTable counts requests per object over one interval: open addressing
// with linear probing from the top bits of a Fibonacci hash, at most half
// full, doubling from 16 slots; a zero count marks an empty slot.
// CloseInterval empties a table but keeps its slots, so it is as large as
// the most distinct objects its server served in one interval.
type countTable struct {
	slots []countSlot
	n     int
}

type countSlot struct{ id, cnt uint32 }

// slot returns id's slot, or the empty slot where its probe ends. The
// table must have slots.
func (t *countTable) slot(id uint32) *countSlot {
	mask := uint64(len(t.slots) - 1)
	i := uint64(id*0x9e3779b9) * uint64(len(t.slots)) >> 32
	for t.slots[i].cnt != 0 && t.slots[i].id != id {
		i = (i + 1) & mask
	}
	return &t.slots[i]
}

// inc adds one to id's count, first doubling the slots if they are half
// full.
func (t *countTable) inc(id uint32) {
	if 2*(t.n+1) > len(t.slots) {
		old := t.slots
		t.slots = make([]countSlot, max(16, 2*len(old)))
		for _, sl := range old {
			if sl.cnt != 0 {
				*t.slot(sl.id) = sl
			}
		}
	}
	sl := t.slot(id)
	if sl.cnt == 0 {
		sl.id = id
		t.n++
	}
	sl.cnt++
}
