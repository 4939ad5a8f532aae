// Package simnet models the backbone network: per-hop propagation delay,
// per-link transmission time, optional FIFO link contention, and the
// byte×hop accounting behind the paper's bandwidth metric ("the bandwidth
// is determined by summing the number of bytes transmitted on each hop",
// §6.2).
//
// Transfers are walked hop by hop analytically at send time: each directed
// link keeps a busy-until timestamp, a transfer on a link starts at
// max(arrival, busyUntil) when contention is enabled, and store-and-forward
// transmission plus propagation delay accumulate into the delivery time,
// without per-hop simulator events. Each transfer's bytes and hop count go
// to the Recorder.
//
// The paper's own simulation treats link bandwidth as a fixed per-hop
// transmission cost rather than a shared capacity (its offered response
// traffic would exceed 350 KB/s on hub links, yet reported latencies stay
// sub-second at equilibrium), so contention defaults to off; it can be
// enabled for ablations.
package simnet

import (
	"fmt"
	"time"

	"radar/internal/topology"
)

// Class labels a transfer for the traffic accounting: payload is object
// data returned to clients; overhead is protocol traffic (object copies
// between hosts, control messages), reported in Figure 7 as a percentage
// of the total.
type Class int

// Traffic classes.
const (
	Payload Class = iota + 1
	Overhead
)

// String returns the class's report name.
func (c Class) String() string {
	switch c {
	case Payload:
		return "payload"
	case Overhead:
		return "overhead"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Recorder receives traffic accounting callbacks; the metrics collector
// implements it.
type Recorder interface {
	// RecordTransfer reports a transfer of bytes over hops links of the
	// given class, initiated at virtual time now.
	RecordTransfer(now time.Duration, class Class, bytes int64, hops int)
}

// Config parameterizes the network model.
type Config struct {
	// HopDelay is the propagation delay per link (Table 1: 10 ms).
	HopDelay time.Duration
	// LinkBandwidthBps is the link bandwidth in bytes/sec
	// (Table 1: 350 KB/s).
	LinkBandwidthBps float64
	// Contention, when true, serializes transfers on each directed link
	// (FIFO store-and-forward). Off by default to match the paper's
	// fixed-cost bandwidth model.
	Contention bool
}

// DefaultConfig returns the Table 1 network parameters.
func DefaultConfig() Config {
	return Config{
		HopDelay:         10 * time.Millisecond,
		LinkBandwidthBps: 350 * 1024,
		Contention:       false,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.HopDelay < 0 {
		return fmt.Errorf("simnet: negative hop delay %v", c.HopDelay)
	}
	if c.LinkBandwidthBps <= 0 {
		return fmt.Errorf("simnet: non-positive bandwidth %v", c.LinkBandwidthBps)
	}
	return nil
}

// linkState is the link up/down state of a network, shared between a
// network and its accounting lanes (see Lane): fault injection cuts a link
// once, on the authoritative network, and every lane observes it.
type linkState struct {
	// down[a*n+b] marks a cut directed link (fault injection); allocated
	// lazily on the first SetLinkDown so fault-free runs pay nothing.
	// Routing tables are immutable, so a down link drops the traffic whose
	// path crosses it instead of triggering rerouting.
	down      []bool
	downLinks int
}

// Network charges transfers along precomputed paths and accounts traffic.
type Network struct {
	cfg      Config
	n        int
	recorder Recorder
	// busyUntil[a*n+b] is the directed link a->b's reservation horizon;
	// allocated lazily only when contention is enabled.
	busyUntil []time.Duration
	// links is the shared up/down state; lanes alias their parent's.
	links *linkState
}

// New builds a network over numNodes nodes. recorder may be nil.
func New(cfg Config, numNodes int, recorder Recorder) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if numNodes <= 0 {
		return nil, fmt.Errorf("simnet: numNodes %d must be positive", numNodes)
	}
	n := &Network{cfg: cfg, n: numNodes, recorder: recorder, links: &linkState{}}
	if cfg.Contention {
		n.busyUntil = make([]time.Duration, numNodes*numNodes)
	}
	return n, nil
}

// Lane returns an accounting lane of nw: a view that shares nw's
// configuration and link up/down state but records transfers against its
// own recorder. A sharded simulation gives each shard a lane so concurrent
// shards never write shared accounting state; the caller merges the lanes'
// recorders after the run (see metrics.Collector.MergeFrom). Lanes do not
// support link contention (the busy-until feedback would couple shards
// through shared mutable state), so nw must have been built with
// Contention off.
func (nw *Network) Lane(recorder Recorder) *Network {
	if nw.busyUntil != nil {
		panic("simnet: accounting lanes are incompatible with link contention")
	}
	return &Network{cfg: nw.cfg, n: nw.n, recorder: recorder, links: nw.links}
}

// TxTime returns the per-link transmission time of a transfer of bytes.
func (nw *Network) TxTime(bytes int64) time.Duration {
	return time.Duration(float64(bytes) / nw.cfg.LinkBandwidthBps * float64(time.Second))
}

// Transfer sends bytes along path (a node sequence, first element the
// source) starting at now, and returns the delivery time at the last node.
// A single-node path is a local delivery: zero latency, zero bytes on the
// wire. Traffic is recorded against the given class.
func (nw *Network) Transfer(now time.Duration, path []topology.NodeID, bytes int64, class Class) time.Duration {
	hops := len(path) - 1
	if hops <= 0 {
		return now
	}
	t := now
	tx := nw.TxTime(bytes)
	for i := 0; i < hops; i++ {
		start := t
		if nw.busyUntil != nil {
			li := int(path[i])*nw.n + int(path[i+1])
			if nw.busyUntil[li] > start {
				start = nw.busyUntil[li]
			}
			nw.busyUntil[li] = start + tx
		}
		t = start + tx + nw.cfg.HopDelay
	}
	nw.record(now, class, bytes, hops)
	return t
}

// ControlLatency returns the delivery time of a negligible-size control
// message (UDP request forwarding) along hops links: propagation only, no
// bytes accounted. The paper treats request sizes as negligible compared
// to page sizes.
func (nw *Network) ControlLatency(now time.Duration, hops int) time.Duration {
	if hops <= 0 {
		return now
	}
	return now + time.Duration(hops)*nw.cfg.HopDelay
}

// ControlMessage charges a small control message of the given size along
// path as overhead traffic and returns its delivery time. Used for
// CreateObj handshakes and redirector notifications.
func (nw *Network) ControlMessage(now time.Duration, path []topology.NodeID, bytes int64) time.Duration {
	hops := len(path) - 1
	if hops <= 0 {
		return now
	}
	nw.record(now, Overhead, bytes, hops)
	return now + time.Duration(hops)*nw.cfg.HopDelay
}

// ControlMessageTo charges a control message along path like
// ControlMessage, but respects link cuts: hops are charged in order until
// the first down link, where the message is lost (ok=false, arrival at the
// stranded node). With every hop up it behaves exactly like ControlMessage
// with ok=true. Used by the unreliable control plane, where a severed path
// consumes bandwidth up to the partition boundary instead of silently
// succeeding across it.
func (nw *Network) ControlMessageTo(now time.Duration, path []topology.NodeID, bytes int64) (arrival time.Duration, ok bool) {
	hops := len(path) - 1
	if hops <= 0 {
		return now, true
	}
	if nw.links.down == nil || nw.links.downLinks == 0 {
		return nw.ControlMessage(now, path, bytes), true
	}
	t := now
	sent := 0
	for i := 0; i < hops; i++ {
		if nw.links.down[int(path[i])*nw.n+int(path[i+1])] {
			break
		}
		t += nw.cfg.HopDelay
		sent++
	}
	if sent > 0 {
		nw.record(now, Overhead, bytes, sent)
	}
	return t, sent == hops
}

func (nw *Network) record(now time.Duration, class Class, bytes int64, hops int) {
	if nw.recorder != nil {
		nw.recorder.RecordTransfer(now, class, bytes, hops)
	}
}

// SetLinkDown cuts or restores the undirected link between a and b (both
// directions at once). It is idempotent: setting an already-down link down
// again is a no-op.
func (nw *Network) SetLinkDown(a, b topology.NodeID, down bool) {
	ls := nw.links
	if ls.down == nil {
		if !down {
			return
		}
		ls.down = make([]bool, nw.n*nw.n)
	}
	for _, li := range [2]int{int(a)*nw.n + int(b), int(b)*nw.n + int(a)} {
		if ls.down[li] != down {
			ls.down[li] = down
			if down {
				ls.downLinks++
			} else {
				ls.downLinks--
			}
		}
	}
}

// LinkIsDown reports whether the directed link a->b is currently cut.
func (nw *Network) LinkIsDown(a, b topology.NodeID) bool {
	if nw.links.down == nil {
		return false
	}
	return nw.links.down[int(a)*nw.n+int(b)]
}

// PathUp reports whether every hop of path is currently up. When no link
// was ever cut this is a nil check; with no down links it is a counter
// check, so fault-free traffic pays nothing.
func (nw *Network) PathUp(path []topology.NodeID) bool {
	ls := nw.links
	if ls.down == nil || ls.downLinks == 0 {
		return true
	}
	for i := 0; i+1 < len(path); i++ {
		if ls.down[int(path[i])*nw.n+int(path[i+1])] {
			return false
		}
	}
	return true
}
