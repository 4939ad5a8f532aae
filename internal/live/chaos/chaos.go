// Package chaos turns the simulator's declarative fault schedules into
// real faults against a live fleet: killed and restarted nodes,
// control-plane partitions, and client-hop latency. The schedule DSL and
// its expansion are shared with the simulator (package fault), so the same
// "crash:3@10s+5s" clause that crashes simulated host 3 kills live node 3
// — deterministically, from the same seed.
//
// The controller is deliberately open-loop: it deals the planned fault
// events at their wall-clock times and reports what it did. Deciding
// whether the fleet survived is the invariant checker's job (package
// check), which the controller keeps informed through the Observer hook.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"radar/internal/fault"
	"radar/internal/topology"
)

// Plan parses a fault-DSL schedule ("crash:N@T+D; mtbf/mttr; link:A-B@T+D;
// cdelay:D") and expands it into the fault timeline the controller deals to
// a fleet on the given topology over the given horizon, plus the client-hop
// latency its cdelay clause injects (zero for none). The timeline is the
// simulator's own (fault.ParseSchedule, Spec.Expand), sorted by (At, Kind,
// element): stochastic clauses draw from seed's reserved fault stream, so a
// schedule at a seed kills the nodes a simulation at that seed crashes, at
// the same instants. Message drop/dup clauses are rejected: a live fleet
// cannot un-deliver a TCP payload — crash or partition it instead.
func Plan(schedule string, topo *topology.Topology, horizon time.Duration, seed int64) ([]fault.Event, time.Duration, error) {
	spec, err := fault.ParseSchedule(schedule)
	if err != nil {
		return nil, 0, err
	}
	if spec.MsgDrop > 0 || spec.MsgDup > 0 {
		return nil, 0, fmt.Errorf("chaos: message drop/dup is simulation-only (crash or partition live nodes instead)")
	}
	timeline, err := spec.Expand(topo, horizon, seed)
	return timeline, spec.MsgDelay, err
}

// Target is what the controller acts on: an in-process fleet
// (FleetTarget), or a test's fake.
type Target interface {
	// Kill crashes a node.
	Kill(n topology.NodeID) error
	// Restart revives a killed node and waits until it reports ready.
	Restart(n topology.NodeID) error
	// SetPartition cuts (or heals) the control plane between a and b.
	SetPartition(a, b topology.NodeID, cut bool) error
	// SetLatency sets the client-hop injection delay.
	SetLatency(d time.Duration) error
}

// Observer is notified of applied node-lifecycle actions with their
// wall-clock times — the invariant checker's crash-window bookkeeping
// hook. Either method may be nil-receiver-safe no-ops; a nil Observer
// disables notification entirely.
type Observer interface {
	OnKill(n topology.NodeID, at time.Time)
	OnRestart(n topology.NodeID, at time.Time)
}

// Controller deals a planned fault timeline to a target at wall-clock
// pace: a host going down is a killed node, a link going down a cut pair.
type Controller struct {
	target  Target
	events  []fault.Event
	latency time.Duration
	obs     Observer

	applied []fault.Event
}

// NewController builds a controller for the given plan. obs may be nil.
func NewController(target Target, events []fault.Event, latency time.Duration, obs Observer) *Controller {
	return &Controller{target: target, events: slices.Clone(events), latency: latency, obs: obs}
}

// Run sets the plan's latency, then applies each event when the wall clock
// reaches epoch+At, stopping early if ctx is cancelled. Failed events do not
// stop the run (chaos is best-effort: a kill of an already-dead node is not
// worth aborting an experiment over); the joined errors are returned at the
// end, and every event that did apply is recorded for Applied.
func (c *Controller) Run(ctx context.Context, epoch time.Time) error {
	var errs []error
	if c.latency > 0 && ctx.Err() == nil {
		if err := c.target.SetLatency(c.latency); err != nil {
			errs = append(errs, fmt.Errorf("chaos: latency %v: %w", c.latency, err))
		}
	}
	for _, e := range c.events {
		if wait := time.Until(epoch.Add(e.At)); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-ctx.Done():
				t.Stop()
				return errors.Join(errs...)
			case <-t.C:
			}
		}
		if ctx.Err() != nil {
			return errors.Join(errs...)
		}
		if err := c.apply(e); err != nil {
			errs = append(errs, fmt.Errorf("chaos: %s: %w", e, err))
			continue
		}
		c.applied = append(c.applied, e)
	}
	return errors.Join(errs...)
}

func (c *Controller) apply(e fault.Event) error {
	switch e.Kind {
	case fault.HostDown:
		// The window opens when the kill BEGINS: requests already fail
		// while the listener is being torn down, and the observer's crash
		// window must cover them.
		at := time.Now()
		if err := c.target.Kill(e.Node); err != nil {
			return err
		}
		if c.obs != nil {
			c.obs.OnKill(e.Node, at)
		}
		return nil
	case fault.HostUp:
		if err := c.target.Restart(e.Node); err != nil {
			return err
		}
		if c.obs != nil {
			c.obs.OnRestart(e.Node, time.Now())
		}
		return nil
	case fault.LinkDown:
		return c.target.SetPartition(e.A, e.B, true)
	case fault.LinkUp:
		return c.target.SetPartition(e.A, e.B, false)
	default:
		return fmt.Errorf("unknown fault kind %v", e.Kind)
	}
}

// Applied returns the events that were successfully applied, in order.
func (c *Controller) Applied() []fault.Event { return slices.Clone(c.applied) }
