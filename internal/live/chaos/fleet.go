package chaos

import (
	"bytes"
	"fmt"
	"net/http"
	"time"

	"radar/internal/live"
	"radar/internal/topology"
)

// PoisonURL is the peer-URL sentinel that severs a control-plane edge: the
// live RPC client fast-fails any base URL without an http scheme, so a
// poisoned entry makes every RPC toward that peer die at the caller
// without touching the network — the in-process model of a partition.
const PoisonURL = "poison://partition"

// FleetTarget adapts an in-process live.Fleet to the controller. Kill and
// Restart also broadcast the reachability mark to the surviving nodes
// (the live analog of the simulator's crash detection), and Restart gates
// on the whole fleet reporting ready so a follow-up action cannot race
// the node's recovery re-registration.
type FleetTarget struct {
	fleet  *live.Fleet
	client *http.Client
	// latency receives SetLatency updates: the free driver's client-hop
	// injection point.
	latency func(time.Duration)
}

// NewFleetTarget wraps a fleet whose load generator injects client-hop
// latency through latencySink ((*live.FreeDriver).SetLatency).
func NewFleetTarget(f *live.Fleet, latencySink func(time.Duration)) *FleetTarget {
	return &FleetTarget{fleet: f, client: &http.Client{Timeout: 2 * time.Second}, latency: latencySink}
}

// Close releases the target's HTTP connections.
func (t *FleetTarget) Close() { t.client.CloseIdleConnections() }

// Kill implements Target: crash the node, then tell the survivors.
func (t *FleetTarget) Kill(n topology.NodeID) error {
	if err := t.fleet.Kill(n); err != nil {
		return err
	}
	live.MarkAll(t.client, t.fleet.URLs(), n, true, t.fleet.Killed)
	return nil
}

// Restart implements Target: revive the node, wait for readiness (which
// includes its recovery re-registration), then clear the survivors' marks.
func (t *FleetTarget) Restart(n topology.NodeID) error {
	if err := t.fleet.Restart(n); err != nil {
		return err
	}
	if err := t.fleet.WaitReady(live.ReadyTimeout); err != nil {
		return err
	}
	live.MarkAll(t.client, t.fleet.URLs(), n, false, t.fleet.Killed)
	return nil
}

// SetPartition implements Target: poison (or restore) each side's peer-URL
// entry for the other. Only the control plane is cut — the serve-URL
// manifest behind client 302s is immutable by design.
func (t *FleetTarget) SetPartition(a, b topology.NodeID, cut bool) error {
	if err := t.setPeer(a, b, cut); err != nil {
		return err
	}
	return t.setPeer(b, a, cut)
}

func (t *FleetTarget) setPeer(on, peer topology.NodeID, cut bool) error {
	if t.fleet.Killed(on) {
		return nil // a dead node has no peer table to poison
	}
	url := PoisonURL
	if !cut {
		url = t.fleet.URL(peer)
	}
	msg := live.PeersMsg{Peer: int(peer), URL: url}
	res, err := t.client.Post(t.fleet.URL(on)+live.PathPeers, "application/json",
		bytes.NewReader(live.Encode(&msg)))
	if err != nil {
		return err
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		return fmt.Errorf("chaos: node %d rejected peer rewrite: %s", on, res.Status)
	}
	return nil
}

// SetLatency implements Target.
func (t *FleetTarget) SetLatency(d time.Duration) error {
	t.latency(d)
	return nil
}
