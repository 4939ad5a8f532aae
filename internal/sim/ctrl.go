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
	// hostBuf is reconcile's scratch for one replica set's hosts.
	hostBuf []topology.NodeID

	// Anti-entropy accounting.
	reconcileRuns     int64
	orphansHealed     int64
	staleAffinity     int64
	ghostsRemoved     int64
	reconcileByteHops int64
}

// armCtrlPlane builds the control plane when the fault spec has
// message-fault terms. Must run after the network and redirectors exist
// and before the hosts (whose handshakes and redirector control then go
// over the plane).
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
// over the routing path, stranded at the first severed link.
func (s *Simulation) ctrlTransport(now time.Duration, from, to topology.NodeID) (time.Duration, bool) {
	return s.net.ControlMessageTo(now, s.routes.Path(from, to), controlMsgBytes)
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

// callCreateObj carries a CreateObj handshake to a live host over the
// plane: the handshake becomes a retried request/reply RPC, and the callee
// handler runs under execAt so its own notifications depart at the
// request's true arrival time.
func (s *Simulation) callCreateObj(now time.Duration, req protocol.CreateObjRequest, token uint64) (protocol.CreateObjStatus, uint64, time.Duration) {
	verdict, tok, doneAt, ok := s.ctrl.plane.Call(now, req.From, req.To, token, func(at time.Duration) bool {
		prev := s.ctrl.execAt
		s.ctrl.execAt = at
		res := s.mem.machines[req.To].Host.CreateObj(at, req)
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

// scheduleReconcile arms the anti-entropy pass, once per placement
// interval.
func (s *Simulation) scheduleReconcile() error {
	if s.ctrl == nil {
		return nil
	}
	interval := s.cfg.PlacementInterval
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
	for i := range machines {
		if s.down[i] {
			continue
		}
		h := topology.NodeID(i)
		for _, red := range redirectors {
			d := int64(s.routes.Distance(h, red.Location))
			s.net.ControlMessage(now, s.routes.Path(h, red.Location), controlMsgBytes)
			s.net.ControlMessage(now, s.routes.Path(red.Location, h), controlMsgBytes)
			c.reconcileByteHops += 2 * controlMsgBytes * d
		}
	}
	// Host -> redirector direction: heal orphans and stale affinities.
	for i, m := range machines {
		if s.down[i] {
			continue
		}
		host := topology.NodeID(i)
		m.Host.EachObject(func(id object.ID, aff int) {
			red := s.mem.redirectorFor(id)
			rec, known := red.RecordedAffinity(id, host)
			switch {
			case !known:
				red.NotifyReplicaChange(id, host, aff)
				c.orphansHealed++
			case rec != aff:
				red.NotifyReplicaChange(id, host, aff)
				c.staleAffinity++
			}
		})
	}
	// Redirector -> host direction: erase records of replicas the host no
	// longer holds (defensive; message loss alone cannot produce these, but
	// the invariant is asserted, not assumed).
	for _, red := range redirectors {
		red.EachObject(func(id object.ID) {
			c.hostBuf = red.ReplicaHosts(id, c.hostBuf)
			for _, h := range c.hostBuf {
				if !machines[h].Host.Has(id) {
					red.RemoveRecord(id, h)
					c.ghostsRemoved++
				}
			}
		})
	}
}
