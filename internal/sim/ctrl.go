package sim

import (
	"fmt"
	"time"

	"radar/internal/ctrlplane"
	"radar/internal/object"
	"radar/internal/protocol"
	"radar/internal/topology"
	"radar/internal/workload"
)

// ctrlState is the armed unreliable-control-plane of one run. It exists
// only when the fault spec carries message-fault terms; a nil
// Simulation.ctrl means every control exchange resolves inline and
// reliably, byte-identical to a build without the subsystem.
type ctrlState struct {
	plane *ctrlplane.Plane
	// redirWrap[i] wraps redirectors[i] with lossy notification and
	// drop-arbitration legs; preallocated so Env.RedirectorFor returns an
	// existing pointer instead of allocating per call.
	redirWrap []lossyRedirector
	// execAt, while non-zero, is the virtual arrival time of the CreateObj
	// request currently executing on its callee: control messages the
	// callee sends from inside the handshake (its replica-change notify)
	// depart at that dilated time, not at the enclosing event's time.
	execAt time.Duration

	// Anti-entropy accounting.
	reconcileRuns     int64
	orphansHealed     int64
	staleAffinity     int64
	ghostsRemoved     int64
	reconcileByteHops int64
}

// armCtrlPlane builds the control plane when the fault spec has
// message-fault terms. Must run after the network and redirectors exist
// and before the hosts (whose Env gets SendCreateObj and the lossy
// redirector wrappers).
func (s *Simulation) armCtrlPlane() error {
	spec := s.cfg.Faults
	if !spec.HasMessageFaults() {
		return nil
	}
	faults := ctrlplane.Faults{Drop: spec.MsgDrop, Dup: spec.MsgDup, Delay: spec.MsgDelay}
	plane, err := ctrlplane.New(s.cfg.Ctrl, faults, workload.Stream(s.cfg.Seed, workload.ControlStream), s.ctrlTransport)
	if err != nil {
		return fmt.Errorf("sim: arming control plane: %w", err)
	}
	s.ctrl = &ctrlState{plane: plane}
	s.ctrl.redirWrap = make([]lossyRedirector, len(s.mem.redirectors))
	for i, red := range s.mem.redirectors {
		s.ctrl.redirWrap[i] = lossyRedirector{s: s, Redirector: red}
	}
	return nil
}

// ctrlTransport delivers one control-message leg for the plane: charged
// over the routing path, stranded at the first severed link. A zero
// ControlMsgBytes charges nothing (matching the reliable path's "free
// control traffic" configuration) but still accrues propagation delay.
func (s *Simulation) ctrlTransport(now time.Duration, from, to topology.NodeID) (time.Duration, bool) {
	path := s.routes.Path(from, to)
	if s.cfg.ControlMsgBytes == 0 {
		if !s.net.PathUp(path) {
			return now, false
		}
		return s.net.ControlLatency(now, len(path)-1), true
	}
	return s.net.ControlMessageTo(now, path, s.cfg.ControlMsgBytes)
}

// ctrlNow is the departure time for a control message sent right now:
// the dilated CreateObj arrival time while a callee handler runs, the
// engine clock otherwise.
func (s *Simulation) ctrlNow() time.Duration {
	if s.ctrl.execAt != 0 {
		return s.ctrl.execAt
	}
	return s.engine.Now()
}

// sendCreateObj implements protocol.Env.SendCreateObj over the plane: the
// handshake becomes a retried request/reply RPC, and the callee handler
// runs under execAt so its own notifications depart at the request's true
// arrival time.
func (s *Simulation) sendCreateObj(now time.Duration, req protocol.CreateObjRequest, token uint64, exec func(at time.Duration) bool) (protocol.CreateObjStatus, uint64, time.Duration) {
	verdict, tok, doneAt, ok := s.ctrl.plane.Call(now, req.From, req.To, token, func(at time.Duration) bool {
		prev := s.ctrl.execAt
		s.ctrl.execAt = at
		res := exec(at)
		s.ctrl.execAt = prev
		return res
	})
	switch {
	case !ok:
		return protocol.CreateLost, tok, doneAt
	case verdict:
		return protocol.CreateAccepted, tok, doneAt
	default:
		return protocol.CreateRefused, tok, doneAt
	}
}

// lossyRedirector carries a host's redirector control traffic over the
// plane. Replica-change notifications are one-way fire-and-forget — a lost
// notify leaves an orphaned replica for reconciliation to heal. Drop
// arbitration is a full retried RPC; when it is lost the host
// conservatively keeps its replica (returning false), which at worst
// leaves an approved-but-unexecuted drop as an orphan record direction the
// reconciler also repairs. Replica counts and replica sets are read
// through the embedded redirector directly: the paper's hosts already
// learn cluster state from the periodic load-report exchange, which this
// models, not from a per-query RPC.
type lossyRedirector struct {
	s *Simulation
	*protocol.Redirector
}

func (l *lossyRedirector) NotifyReplicaChange(id object.ID, host topology.NodeID, aff int) {
	l.s.ctrl.plane.Notify(l.s.ctrlNow(), host, l.Location, func(time.Duration) {
		l.Redirector.NotifyReplicaChange(id, host, aff)
	})
}

func (l *lossyRedirector) RequestDrop(id object.ID, host topology.NodeID) bool {
	approved, _, _, ok := l.s.ctrl.plane.Call(l.s.ctrlNow(), host, l.Location, 0, func(time.Duration) bool {
		return l.Redirector.RequestDrop(id, host)
	})
	return ok && approved
}

// scheduleReconcile arms the periodic anti-entropy pass.
func (s *Simulation) scheduleReconcile() error {
	if s.ctrl == nil {
		return nil
	}
	interval := s.ctrl.plane.Params().ReconcileInterval
	if err := s.every(interval, interval, s.reconcile); err != nil {
		return fmt.Errorf("sim: scheduling reconciliation: %w", err)
	}
	return nil
}

// reconcile is one anti-entropy pass: every live host exchanges a replica
// digest with each redirector (modeled as a reliable TCP bulk sync, unlike
// the lossy per-message control RPCs) and the redirector's records are
// brought in line with ground truth — orphaned replicas whose
// create-notify was lost are registered, stale affinities from lost
// decrement-notifies are corrected, and ghost records of replicas their
// host no longer holds are erased. After a pass the redirector invariant
// (recorded replica set ⊆ live replicas, with matching affinities) holds
// for every object whose host is up.
func (s *Simulation) reconcile(now time.Duration) {
	c := s.ctrl
	machines, redirectors := s.mem.machines, s.mem.redirectors
	c.reconcileRuns++
	// Digest round trips: one request/summary pair per live host per
	// redirector, charged reliably (reconciliation rides TCP, not the
	// lossy datagram legs).
	if s.cfg.ControlMsgBytes > 0 {
		for i := range machines {
			if s.down[i] {
				continue
			}
			h := topology.NodeID(i)
			for _, red := range redirectors {
				d := int64(s.routes.Distance(h, red.Location))
				s.net.ControlMessage(now, s.routes.Path(h, red.Location), s.cfg.ControlMsgBytes)
				s.net.ControlMessage(now, s.routes.Path(red.Location, h), s.cfg.ControlMsgBytes)
				c.reconcileByteHops += 2 * s.cfg.ControlMsgBytes * d
			}
		}
	}
	// Host -> redirector direction: heal orphans and stale affinities.
	for i, m := range machines {
		if s.down[i] {
			continue
		}
		h := m.Host
		for _, id := range h.Objects() {
			red := s.mem.redirectorFor(id)
			aff := h.Affinity(id)
			rec, known := red.RecordedAffinity(id, topology.NodeID(i))
			switch {
			case !known:
				red.NotifyReplicaChange(id, topology.NodeID(i), aff)
				c.orphansHealed++
			case rec != aff:
				red.NotifyReplicaChange(id, topology.NodeID(i), aff)
				c.staleAffinity++
			}
		}
	}
	// Redirector -> host direction: erase records of replicas the host no
	// longer holds (defensive; message loss alone cannot produce these, but
	// the invariant is asserted, not assumed).
	var hosts []topology.NodeID
	for _, red := range redirectors {
		for _, id := range red.Objects() {
			hosts = red.ReplicaHosts(id, hosts)
			for _, h := range hosts {
				if !machines[h].Host.Has(id) {
					red.RemoveRecord(id, h)
					c.ghostsRemoved++
				}
			}
		}
	}
}
