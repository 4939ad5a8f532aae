// Package live runs the replica placement and request distribution
// protocol over real sockets: each node owns one protocol.Host
// (and, when it is a redirector location, one protocol.Redirector) behind
// an HTTP/JSON control plane, a redirecting front-end answers object
// requests with 302s to the chosen replica host, and a driver replays the
// simulator's exact event schedule against the fleet, so the deterministic
// simulation remains the executable spec for what a live fleet must do.
//
// The wire format is deliberately small: JSON bodies, with message IDs on
// the RPCs not idempotent by content (CreateObj, drop arbitration), so
// servers deduplicate retries and duplicates like the simulated control
// plane's message-ID-keyed idempotence. Virtual timestamps travel as int64
// nanoseconds; the nodes are clock-less and advance only when a request
// tells them what time it is (see DESIGN.md §4.8 for why this is what
// keeps live mode pinned to the simulator).
package live

import (
	"encoding/json"
	"fmt"
	"math"

	"radar/internal/protocol"
	"radar/internal/sim"
	"radar/internal/store"
	"radar/internal/topology"
)

// HTTP paths of the live control plane. Object-request paths take the
// object ID as a suffix (/obj/17), RPC and control paths take JSON bodies
// or query parameters.
const (
	// PathObj is the redirecting front-end: GET /obj/{id}?g=G&now=N on the
	// node owning the object's redirector answers 302 with the chosen
	// replica's serve URL.
	PathObj = "/obj/"
	// PathServe serves object bytes from a replica host:
	// GET /serve/{id}?g=G&now=N.
	PathServe = "/serve/"
	// PathFetch transfers raw replica bytes host-to-host for CreateObj
	// copies: GET /fetch/{id}.
	PathFetch = "/fetch/"

	PathCreateObj   = "/rpc/createobj"
	PathNotify      = "/rpc/notify"
	PathRequestDrop = "/rpc/requestdrop"
	PathLoad        = "/rpc/load"
	PathReplicas    = "/rpc/replicas"

	PathPlace    = "/ctl/place"
	PathMeasure  = "/ctl/measure"
	PathComplete = "/ctl/complete"
	PathCensus   = "/ctl/census"
	PathMark     = "/ctl/mark"
	PathStats    = "/ctl/stats"
	// PathHealth is pure liveness: the node's listener is up and serving HTTP.
	PathHealth = "/healthz"
	// PathReady is readiness: the node has started (seed placement
	// installed, redirector registered, and — in free-running mode — its
	// tickers running). The chaos controller and failover tests gate on
	// readiness, not liveness, so they cannot race node startup.
	PathReady = "/readyz"
)

// Response headers carrying virtual-time results of object requests.
const (
	// HeaderHost is the chosen replica host's node ID on a 302.
	HeaderHost = "X-Radar-Host"
	// HeaderDone is the virtual FCFS service completion time (ns) of an
	// admitted request.
	HeaderDone = "X-Radar-Done"
	// HeaderTimeout marks a request refused by the client-timeout model
	// (queue delay exceeded the configured timeout).
	HeaderTimeout = "X-Radar-Timeout"
)

// WireError is the typed decode/validation error of the live wire format:
// any malformed or out-of-range control-plane body yields one (never a
// panic), so handlers can answer 400 with a structured reason.
type WireError struct {
	// Field names the offending field; empty for whole-body errors
	// (malformed JSON).
	Field string
	// Reason says what was wrong.
	Reason string
}

// Error implements error.
func (e *WireError) Error() string {
	if e.Field == "" {
		return fmt.Sprintf("live: bad message: %s", e.Reason)
	}
	return fmt.Sprintf("live: bad message field %s: %s", e.Field, e.Reason)
}

// validator is any wire message with self-validation; Decode runs it after
// unmarshaling.
type validator interface{ Validate() error }

// Decode unmarshals data into msg and validates it. All errors are
// *WireError.
func Decode(data []byte, msg validator) error {
	if err := json.Unmarshal(data, msg); err != nil {
		return &WireError{Reason: err.Error()}
	}
	return msg.Validate()
}

// decodeReply decodes and validates a 200 reply body into resp. A nil
// resp discards the body.
func decodeReply(data []byte, resp validator) error {
	if resp == nil {
		return nil
	}
	return Decode(data, resp)
}

// Encode marshals a wire message. Marshaling a validated message cannot
// fail; Encode panics on the programming error that it does.
func Encode(msg any) []byte {
	data, err := json.Marshal(msg)
	if err != nil {
		panic(fmt.Sprintf("live: encoding %T: %v", msg, err))
	}
	return data
}

// checkNode validates a node ID field (non-negative; the upper bound is
// the receiver's fleet size, checked at dispatch, not here — the wire
// format does not know the topology).
func checkNode(field string, v int) error {
	if v < 0 {
		return &WireError{Field: field, Reason: fmt.Sprintf("negative node id %d", v)}
	}
	return nil
}

// checkTime validates a virtual timestamp in nanoseconds.
func checkTime(field string, v int64) error {
	if v < 0 {
		return &WireError{Field: field, Reason: fmt.Sprintf("negative virtual time %d", v)}
	}
	return nil
}

// CreateObjMsg is the CreateObj handshake request (Fig. 4) on the wire:
// protocol.CreateObjRequest plus the message identity and virtual send
// time. Retries and duplicates carry the same MsgID and are answered from
// the receiver's verdict cache without re-executing.
type CreateObjMsg struct {
	MsgID    uint64  `json:"msg_id"`
	From     int     `json:"from"`
	To       int     `json:"to"`
	Method   string  `json:"method"`
	Object   int64   `json:"object"`
	UnitLoad float64 `json:"unit_load"`
	SrcAff   int     `json:"src_aff"`
	Now      int64   `json:"now"`
}

// Validate implements validator.
func (m *CreateObjMsg) Validate() error {
	if m.MsgID == 0 {
		return &WireError{Field: "msg_id", Reason: "zero message id"}
	}
	if err := checkNode("from", m.From); err != nil {
		return err
	}
	if err := checkNode("to", m.To); err != nil {
		return err
	}
	if _, err := protocol.ParseMethod(m.Method); err != nil {
		return &WireError{Field: "method", Reason: err.Error()}
	}
	if m.Object < 0 {
		return &WireError{Field: "object", Reason: fmt.Sprintf("negative object id %d", m.Object)}
	}
	if math.IsNaN(m.UnitLoad) || math.IsInf(m.UnitLoad, 0) || m.UnitLoad < 0 {
		return &WireError{Field: "unit_load", Reason: fmt.Sprintf("unit load %v not a non-negative finite number", m.UnitLoad)}
	}
	if m.SrcAff < 1 {
		return &WireError{Field: "src_aff", Reason: fmt.Sprintf("source affinity %d below 1", m.SrcAff)}
	}
	return checkTime("now", m.Now)
}

// CreateObjReply is the handshake verdict.
type CreateObjReply struct {
	MsgID    uint64 `json:"msg_id"`
	Accepted bool   `json:"accepted"`
	// Copied reports that acceptance created a new replica (the object
	// bytes were fetched from the source), as opposed to incrementing an
	// existing replica's affinity; the caller charges the transfer.
	Copied bool `json:"copied,omitempty"`
}

// Validate implements validator.
func (m *CreateObjReply) Validate() error {
	if m.MsgID == 0 {
		return &WireError{Field: "msg_id", Reason: "zero message id"}
	}
	return nil
}

// NotifyMsg is a replica-change notification to the object's redirector.
// It sets the recorded affinity: idempotent by content, it carries no ID.
type NotifyMsg struct {
	Object int64 `json:"object"`
	Host   int   `json:"host"`
	Aff    int   `json:"aff"`
}

// Validate implements validator.
func (m *NotifyMsg) Validate() error {
	if m.Object < 0 {
		return &WireError{Field: "object", Reason: fmt.Sprintf("negative object id %d", m.Object)}
	}
	if err := checkNode("host", m.Host); err != nil {
		return err
	}
	if m.Aff < 0 {
		return &WireError{Field: "aff", Reason: fmt.Sprintf("negative affinity %d", m.Aff)}
	}
	return nil
}

// DropMsg asks the object's redirector for permission to drop the last
// affinity unit of a replica (Fig. 3's ReduceAffinity arbitration).
type DropMsg struct {
	MsgID  uint64 `json:"msg_id"`
	Object int64  `json:"object"`
	Host   int    `json:"host"`
}

// Validate implements validator.
func (m *DropMsg) Validate() error {
	if m.MsgID == 0 {
		return &WireError{Field: "msg_id", Reason: "zero message id"}
	}
	if m.Object < 0 {
		return &WireError{Field: "object", Reason: fmt.Sprintf("negative object id %d", m.Object)}
	}
	return checkNode("host", m.Host)
}

// DropReply is the arbitration verdict.
type DropReply struct {
	MsgID    uint64 `json:"msg_id"`
	Approved bool   `json:"approved"`
}

// Validate implements validator.
func (m *DropReply) Validate() error {
	if m.MsgID == 0 {
		return &WireError{Field: "msg_id", Reason: "zero message id"}
	}
	return nil
}

// LoadReply answers a load query (GET /rpc/load): the host's accept-side
// load — the periodic load-report exchange of §4.2.2 turned into an
// on-demand RPC — plus its watermarks and, when the query names an object
// and a time, replica presence and the acquisition-halt guard, which
// repair-target selection consults.
type LoadReply struct {
	AcceptLoad float64 `json:"accept_load"`
	Low        float64 `json:"lw"`
	High       float64 `json:"hw"`
	Has        bool    `json:"has,omitempty"`
	Halted     bool    `json:"halted,omitempty"`
}

// Validate implements validator.
func (m *LoadReply) Validate() error {
	if math.IsNaN(m.AcceptLoad) || math.IsInf(m.AcceptLoad, 0) || m.AcceptLoad < 0 {
		return &WireError{Field: "accept_load", Reason: fmt.Sprintf("load %v not a non-negative finite number", m.AcceptLoad)}
	}
	if m.Low <= 0 || m.High <= m.Low {
		return &WireError{Field: "lw", Reason: fmt.Sprintf("watermarks lw=%v hw=%v must satisfy 0 < lw < hw", m.Low, m.High)}
	}
	return nil
}

// ReplicasReply answers a replica-set query: the hosts the redirector
// records for the object, sorted by host ID.
type ReplicasReply struct {
	Hosts []topology.NodeID `json:"hosts,omitempty"`
}

// Validate implements validator.
func (m *ReplicasReply) Validate() error {
	for _, h := range m.Hosts {
		if err := checkNode("hosts", int(h)); err != nil {
			return err
		}
	}
	return nil
}

// TickMsg drives one virtual-time control action on a node: a placement
// pass (POST /ctl/place) or a measurement-interval close (POST
// /ctl/measure).
type TickMsg struct {
	Now int64 `json:"now"`
}

// Validate implements validator.
func (m *TickMsg) Validate() error { return checkTime("now", m.Now) }

// PlaceReply reports one placement pass: every event the pass caused, in
// causal order — placement decisions, refusals, deferrals, and each object
// copy ahead of the decision whose handshake made it. The list is all a
// pass reports.
type PlaceReply struct {
	Events []Event `json:"events,omitempty"`
}

// Validate implements validator.
func (m *PlaceReply) Validate() error {
	for _, e := range m.Events {
		if err := e.Validate(); err != nil {
			return &WireError{Field: "events", Reason: err.Error()}
		}
	}
	return nil
}

// MeasureReply reports one measurement-interval close: the measured load
// and the estimator's bounds.
type MeasureReply struct {
	Load  float64 `json:"load"`
	Lower float64 `json:"lower"`
	Upper float64 `json:"upper"`
}

// Validate implements validator.
func (m *MeasureReply) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{{"load", m.Load}, {"lower", m.Lower}, {"upper", m.Upper}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) || f.v < 0 {
			return &WireError{Field: f.name, Reason: fmt.Sprintf("%v not a non-negative finite number", f.v)}
		}
	}
	return nil
}

// CompleteMsg reports the FCFS service completion of a previously admitted
// request: the node records the serviced request (access counts, load
// measurement), which the next measurement close sees.
type CompleteMsg struct {
	Object  int64 `json:"object"`
	Gateway int   `json:"g"`
}

// Validate implements validator.
func (m *CompleteMsg) Validate() error {
	if m.Object < 0 {
		return &WireError{Field: "object", Reason: fmt.Sprintf("negative object id %d", m.Object)}
	}
	return checkNode("g", m.Gateway)
}

// CensusReply is the replica census of the redirector this node owns
// (GET /ctl/census): the simulator's census record on the wire.
type CensusReply sim.ReplicaCensus

// Validate implements validator.
func (m *CensusReply) Validate() error {
	if m.TotalReplicas < 0 || m.BelowFloor < 0 || m.MaxReplicas < 0 || m.Zero < 0 {
		return &WireError{Field: "total_replicas", Reason: "negative census"}
	}
	return nil
}

// MarkMsg marks a fleet member down (or back up) on this node's
// reachability view: its redirector stops choosing replicas on that host
// and load queries skip it — the live analog of the simulator's
// crash-detection control path.
type MarkMsg struct {
	Host int  `json:"host"`
	Down bool `json:"down"`
}

// Validate implements validator.
func (m *MarkMsg) Validate() error { return checkNode("host", m.Host) }

// Event is an entry of a placement pass's event list: the protocol's one
// record of a decision, in its wire form.
type Event = protocol.Event

// Event kinds, the protocol's.
const (
	EventMigrate   = protocol.EventMigrate
	EventReplicate = protocol.EventReplicate
	EventDrop      = protocol.EventDrop
	EventRefuse    = protocol.EventRefuse
	EventDefer     = protocol.EventDefer
	EventCopy      = protocol.EventCopy
)

// StatsReply is a node's activity snapshot (GET /ctl/stats): the host's
// protocol counters, the server's volume counters, and the CreateObj
// dedup/concurrency gauges the integration tests assert on.
type StatsReply struct {
	Host protocol.HostStats `json:"host"`

	TotalServed int64 `json:"total_served"`
	MaxQueueLen int   `json:"max_queue_len"`

	// CreateExecutions counts CreateObj handlers actually executed (after
	// dedup); CreatePeakConcurrency is the high-water mark of concurrent
	// executions, at most the node's fixed CreateObj limit of 4.
	CreateExecutions      int64 `json:"create_executions"`
	CreatePeakConcurrency int   `json:"create_peak_concurrency"`

	// BootID distinguishes node incarnations: a restarted node starts a
	// fresh one, which is how the invariant checker tells a legitimate
	// counter reset (new boot) from a corrupt one (same boot).
	BootID int64 `json:"boot_id,omitempty"`

	// RPC client counters: attempts issued, retries among them, calls
	// abandoned after the schedule, and calls cut short by the per-peer
	// retry budget.
	RPCAttempts      int64 `json:"rpc_attempts,omitempty"`
	RPCRetries       int64 `json:"rpc_retries,omitempty"`
	RPCLost          int64 `json:"rpc_lost,omitempty"`
	RPCBudgetDenials int64 `json:"rpc_budget_denials,omitempty"`

	// Free-running ticker counters: how many self-scheduled measurement
	// and placement ticks this incarnation has run.
	MeasureTicks int64 `json:"measure_ticks,omitempty"`
	PlaceTicks   int64 `json:"place_ticks,omitempty"`

	// StoreLayers is the node's storage stack, layer by layer in the
	// stack's pre-order; the driver sums them fleet-wide into
	// Results.StoreLayers (store.Aggregate).
	StoreLayers []store.LayerStats `json:"store_layers,omitempty"`
}

// Validate implements validator.
func (m *StatsReply) Validate() error {
	if m.TotalServed < 0 || m.MaxQueueLen < 0 || m.CreateExecutions < 0 || m.CreatePeakConcurrency < 0 {
		return &WireError{Field: "total_served", Reason: "negative counter"}
	}
	if m.BootID < 0 || m.RPCAttempts < 0 || m.RPCRetries < 0 || m.RPCLost < 0 || m.RPCBudgetDenials < 0 {
		return &WireError{Field: "boot_id", Reason: "negative counter"}
	}
	if m.MeasureTicks < 0 || m.PlaceTicks < 0 {
		return &WireError{Field: "measure_ticks", Reason: "negative counter"}
	}
	for _, l := range m.StoreLayers {
		if min(l.Creates, l.Drops, l.Serves, l.Hits, l.Misses, l.Evictions, l.Repairs, l.Refetches,
			l.Crashes, l.LostWrites, l.Replicas, l.BytesUsed, l.CostNanos) < 0 {
			return &WireError{Field: "store_layers", Reason: fmt.Sprintf("negative counter in layer %q", l.Label)}
		}
	}
	return nil
}
