// Package chaos turns the simulator's declarative fault schedules into
// real faults against a live fleet: killed and restarted nodes,
// control-plane partitions, and client-hop latency. The schedule DSL and
// its expansion are shared with the simulator (package fault), so the same
// "crash:3@10s+5s" clause that crashes simulated host 3 kills live node 3
// — deterministically, from the same seed.
//
// The controller is deliberately open-loop: it applies the planned actions
// at their wall-clock times and reports what it did. Deciding whether the
// fleet survived is the invariant checker's job (package check), which the
// controller keeps informed through the Observer hook.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"radar/internal/fault"
	"radar/internal/topology"
)

// Kind labels a chaos action.
type Kind uint8

// Action kinds, in application order at equal times (mirroring
// fault.Kind order: a node dies before one revives, node actions precede
// partition actions).
const (
	// Kill crashes a node the way SIGKILL would: listener torn down,
	// goroutines reaped, nothing flushed.
	Kill Kind = iota + 1
	// Restart brings a killed node back as a fresh incarnation.
	Restart
	// Cut partitions a pair of nodes at the control plane: each side's
	// peer-URL entry for the other is poisoned, so every control RPC
	// between them fails at the client without crossing the network.
	Cut
	// Heal restores a cut pair's peer URLs.
	Heal
	// Latency sets the client-hop injection delay (applied before every
	// generated request).
	Latency
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case Kill:
		return "kill"
	case Restart:
		return "restart"
	case Cut:
		return "cut"
	case Heal:
		return "heal"
	case Latency:
		return "latency"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Action is one scheduled chaos step, At relative to the run's epoch.
type Action struct {
	At   time.Duration
	Kind Kind
	// Node is the killed/restarted node (Kill, Restart).
	Node topology.NodeID
	// A, B are the partitioned pair, A < B (Cut, Heal).
	A, B topology.NodeID
	// Delay is the injected client-hop latency (Latency).
	Delay time.Duration
}

// String renders the action for logs and violation reports.
func (a Action) String() string {
	switch a.Kind {
	case Kill, Restart:
		return fmt.Sprintf("%v %s node %d", a.At, a.Kind, a.Node)
	case Cut, Heal:
		return fmt.Sprintf("%v %s %d-%d", a.At, a.Kind, a.A, a.B)
	default:
		return fmt.Sprintf("%v %s %v", a.At, a.Kind, a.Delay)
	}
}

// Plan parses a fault-DSL schedule ("crash:N@T+D; mtbf/mttr; link:A-B@T+D;
// cdelay:D") and expands it into the chaos actions for a fleet on the
// given topology over the given horizon. Expansion goes through the exact
// code path the simulator uses (fault.ParseSchedule, Spec.Timeline over
// fault.TopoEdges), so a schedule means the same thing in both worlds;
// stochastic clauses draw from rng (nil is fine for purely scripted
// schedules). Message drop/dup clauses are rejected: a live fleet cannot
// un-deliver a TCP payload — crash or partition it instead.
func Plan(schedule string, topo *topology.Topology, horizon time.Duration, rng *rand.Rand) ([]Action, error) {
	spec, err := fault.ParseSchedule(schedule)
	if err != nil {
		return nil, err
	}
	if spec.MsgDrop > 0 || spec.MsgDup > 0 {
		return nil, fmt.Errorf("chaos: message drop/dup is simulation-only (crash or partition live nodes instead)")
	}
	timeline, err := spec.Timeline(topo.NumNodes(), fault.TopoEdges(topo), horizon, rng)
	if err != nil {
		return nil, err
	}
	var actions []Action
	if spec.MsgDelay > 0 {
		actions = append(actions, Action{Kind: Latency, Delay: spec.MsgDelay})
	}
	for _, e := range timeline {
		switch e.Kind {
		case fault.HostDown:
			actions = append(actions, Action{At: e.At, Kind: Kill, Node: e.Node})
		case fault.HostUp:
			actions = append(actions, Action{At: e.At, Kind: Restart, Node: e.Node})
		case fault.LinkDown:
			actions = append(actions, Action{At: e.At, Kind: Cut, A: e.A, B: e.B})
		case fault.LinkUp:
			actions = append(actions, Action{At: e.At, Kind: Heal, A: e.A, B: e.B})
		}
	}
	sort.SliceStable(actions, func(i, j int) bool {
		if actions[i].At != actions[j].At {
			return actions[i].At < actions[j].At
		}
		return actions[i].Kind < actions[j].Kind
	})
	return actions, nil
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

// Controller applies a planned action sequence to a target at wall-clock
// pace.
type Controller struct {
	target  Target
	actions []Action
	obs     Observer

	applied []Action
}

// NewController builds a controller for the given plan. obs may be nil.
func NewController(target Target, actions []Action, obs Observer) *Controller {
	return &Controller{target: target, actions: append([]Action(nil), actions...), obs: obs}
}

// Run applies each action when the wall clock reaches epoch+Action.At,
// stopping early if ctx is cancelled. Failed actions do not stop the run
// (chaos is best-effort: a Kill of an already-dead node is not worth
// aborting an experiment over); the joined errors are returned at the
// end, and every action that did apply is recorded for Applied.
func (c *Controller) Run(ctx context.Context, epoch time.Time) error {
	var errs []error
	for _, a := range c.actions {
		if wait := time.Until(epoch.Add(a.At)); wait > 0 {
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
		if err := c.apply(a); err != nil {
			errs = append(errs, fmt.Errorf("chaos: %s: %w", a, err))
			continue
		}
		c.applied = append(c.applied, a)
	}
	return errors.Join(errs...)
}

func (c *Controller) apply(a Action) error {
	switch a.Kind {
	case Kill:
		// The window opens when the kill BEGINS: requests already fail
		// while the listener is being torn down, and the observer's crash
		// window must cover them.
		at := time.Now()
		if err := c.target.Kill(a.Node); err != nil {
			return err
		}
		if c.obs != nil {
			c.obs.OnKill(a.Node, at)
		}
		return nil
	case Restart:
		if err := c.target.Restart(a.Node); err != nil {
			return err
		}
		if c.obs != nil {
			c.obs.OnRestart(a.Node, time.Now())
		}
		return nil
	case Cut:
		return c.target.SetPartition(a.A, a.B, true)
	case Heal:
		return c.target.SetPartition(a.A, a.B, false)
	case Latency:
		return c.target.SetLatency(a.Delay)
	default:
		return fmt.Errorf("unknown action kind %d", a.Kind)
	}
}

// Applied returns the actions that were successfully applied, in order.
func (c *Controller) Applied() []Action { return append([]Action(nil), c.applied...) }
