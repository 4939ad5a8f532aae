// Package server models a hosting server (paper §2, §2.1, §6.1): a
// first-come-first-served queue with fixed service rate, and load
// measurement as the rate of serviced requests averaged over a measurement
// interval, attributed per object proportionally to per-object service.
package server

import (
	"fmt"
	"time"

	"radar/internal/object"
	"radar/internal/topology"
)

// Config parameterizes a server.
type Config struct {
	// CapacityRPS is the service rate in requests/sec (Table 1: 200).
	CapacityRPS float64
	// MeasurementInterval is the load averaging window (paper: 20 s).
	MeasurementInterval time.Duration
}

// DefaultConfig returns Table 1 server parameters.
func DefaultConfig() Config {
	return Config{CapacityRPS: 200, MeasurementInterval: 20 * time.Second}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.CapacityRPS <= 0 {
		return fmt.Errorf("server: capacity %v must be positive", c.CapacityRPS)
	}
	if c.MeasurementInterval <= 0 {
		return fmt.Errorf("server: measurement interval %v must be positive", c.MeasurementInterval)
	}
	return nil
}

// Server is one hosting server's queueing and load-measurement state.
// It implements protocol.LoadSource.
type Server struct {
	// ID is the node the server runs on.
	ID topology.NodeID

	serviceTime time.Duration
	interval    time.Duration
	// objects is the ExpectObjects hint: the per-object arrays' first
	// growth goes straight to this length.
	objects int

	busyUntil time.Duration

	// Current (open) interval accumulation. Object IDs are dense small
	// integers, so per-object counters are slices indexed by ID with a
	// touched-list instead of maps: the per-request update is an indexed
	// increment, and CloseInterval only walks objects actually served.
	// The per-object counters are exact whenever a method of the server
	// reads them: OnServed only logs the ID, and settle charges the log
	// when it is full and first thing in CloseInterval, their one reader.
	intervalStart time.Duration
	served        int64
	servedLog     []uint32 // served, not yet charged; nil until the first request
	servedPerObj  []int32  // indexed by object.ID, grown on demand;
	// int32 is ample for one measurement interval and keeps the dense
	// per-object counter block cache-resident

	servedTouched []object.ID // IDs with non-zero servedPerObj entries

	// Last completed interval's measurements.
	measuredLoad float64
	objLoad      []float64   // indexed by object.ID, grown on demand
	loadTouched  []object.ID // IDs with non-zero objLoad entries

	// Lifetime counters.
	totalServed int64
	maxQueueLen int
	queueLen    int
}

// New builds a server on node id.
func New(id topology.NodeID, cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Server{
		ID:          id,
		serviceTime: time.Duration(float64(time.Second) / cfg.CapacityRPS),
		interval:    cfg.MeasurementInterval,
	}, nil
}

// ExpectObjects tells the server that object IDs run below n, so that the
// per-object arrays grow once, on the first served request, to exactly n
// entries instead of doubling their way to somewhere between n and 2n.
// Nothing is allocated here: a server that never serves pays nothing.
func (s *Server) ExpectObjects(n int) { s.objects = n }

// growTo returns s grown to length n, zero-filling new elements and
// reusing spare capacity when possible. n must be at least len(s).
func growTo[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	grown := make([]T, n, max(2*cap(s), n))
	copy(grown, s)
	return grown
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
	if len(s.servedLog) == cap(s.servedLog) {
		s.settle()
		if s.servedLog == nil {
			s.servedLog = make([]uint32, 0, servedLogCap)
		}
	}
	s.servedLog = append(s.servedLog, uint32(id))
}

// settle charges every logged request to its object's counter, in service
// order, and empties the log: one loop of independent iterations overlaps
// the counters' cache misses, which an event loop takes one at a time.
func (s *Server) settle() {
	for _, id := range s.servedLog {
		if int(id) >= len(s.servedPerObj) {
			s.servedPerObj = growTo(s.servedPerObj, max(int(id)+1, s.objects))
		}
		if s.servedPerObj[id] == 0 {
			s.servedTouched = append(s.servedTouched, object.ID(id))
		}
		s.servedPerObj[id]++
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
	for _, id := range s.loadTouched {
		s.objLoad[id] = 0
	}
	s.loadTouched = s.loadTouched[:0]
	if len(s.servedPerObj) > len(s.objLoad) {
		s.objLoad = growTo(s.objLoad, len(s.servedPerObj))
	}
	for _, id := range s.servedTouched {
		s.objLoad[id] = float64(s.servedPerObj[id]) / secs
		s.servedPerObj[id] = 0
		s.loadTouched = append(s.loadTouched, id)
	}
	s.servedTouched = s.servedTouched[:0]
	s.served = 0
	s.intervalStart = now
	return closedStart
}

// Load returns the measured total load (requests/sec) of the last
// completed interval. It implements protocol.LoadSource.
func (s *Server) Load() float64 { return s.measuredLoad }

// ObjectLoad returns the measured load attributed to id over the last
// completed interval. It implements protocol.LoadSource.
func (s *Server) ObjectLoad(id object.ID) float64 {
	if int(id) >= len(s.objLoad) {
		return 0
	}
	return s.objLoad[id]
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
