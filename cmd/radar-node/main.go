// Command radar-node runs one live fleet member as a standalone process:
// a protocol host and FCFS server (and, on redirector locations, the
// redirector answering object requests with 302s) behind the HTTP/JSON
// control plane. In the default driver-paced mode nodes are clock-less —
// they advance only when a driver (radar-load) tells them what virtual
// time it is — so a fleet of these processes replays the simulator's
// schedule exactly. With -free-running the node owns its clock instead:
// measurement and placement ticks self-schedule on jittered wall-clock
// timers, and verification shifts to radar-load's invariant checker.
//
// Every member of a fleet must be started with the same scenario and
// overrides, and the -peers list must name every node's base URL in node
// ID order (the entry for this node itself may be a placeholder).
//
// Lifecycle: SIGTERM (or SIGINT) begins a graceful drain — the listener
// stops accepting, in-flight requests finish within -drain, and the
// process exits 0 — while SIGKILL is the crash the fleet must survive.
// A restarted node should be given -recovered so it re-announces its
// replicas to the fleet's redirectors before reporting ready. -ready-file
// names a file created once the node is serving and recovered: the
// process-level readiness signal for whatever supervises the process.
//
// Example: every scenario runs on UUNET's 53-node backbone (the scenario
// language has no topology key), so a fleet is 53 processes, node IDs
// 0–52, each given the same list of all 53 base URLs:
//
//	peers=$(seq -s, -f 'http://127.0.0.1:%g' 8300 8352)
//	for i in $(seq 0 52); do
//		radar-node -scenario steady-state-baseline -id $i -listen 127.0.0.1:$((8300 + i)) -peers $peers &
//	done
//	radar-load -scenario steady-state-baseline -urls $peers
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"radar/internal/live"
	"radar/internal/topology"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "radar-node:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name      = flag.String("scenario", "steady-state-baseline", "scenario the fleet replays")
		id        = flag.Int("id", -1, "this node's ID (0..n-1 in the scenario's topology)")
		listen    = flag.String("listen", "127.0.0.1:0", "listen address")
		peers     = flag.String("peers", "", "comma-separated base URLs of every fleet member, in node ID order")
		duration  = flag.Duration("duration", 0, "override the scenario's virtual duration (0 = keep)")
		rps       = flag.Float64("rps", 0, "override the per-gateway request rate (0 = keep)")
		seed      = flag.Int64("seed", 0, "override the scenario seed (0 = keep)")
		freeRun   = flag.Bool("free-running", false, "self-schedule control ticks on the wall clock instead of waiting for a driver")
		recovered = flag.Bool("recovered", false, "this is a restart: re-announce held replicas to the redirectors before reporting ready")
		readyFile = flag.String("ready-file", "", "create this file once serving and recovered (readiness signal for process supervisors)")
		drain     = flag.Duration("drain", 5*time.Second, "graceful-shutdown window on SIGTERM/SIGINT: finish in-flight requests, then exit")
	)
	flag.Parse()

	if *id < 0 {
		return fmt.Errorf("missing -id")
	}
	if *peers == "" {
		return fmt.Errorf("missing -peers")
	}

	cfg, err := live.ScenarioConfig(*name, *duration, *rps, *seed, *freeRun)
	if err != nil {
		return err
	}

	urls := strings.Split(*peers, ",")
	node, err := live.NewNode(cfg, topology.NodeID(*id), urls, nil)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	mode := "driver-paced"
	if *freeRun {
		mode = "free-running"
	}
	fmt.Printf("radar-node: node %d of scenario %s serving on http://%s (%s)\n", *id, *name, ln.Addr(), mode)

	srv := &http.Server{Handler: node.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	// Boot: in free-running mode this starts the tickers, and a recovered
	// node re-registers its replicas first. /readyz answers 200 from here.
	node.Start(time.Now(), *recovered)
	if *readyFile != "" {
		if err := os.WriteFile(*readyFile, []byte(fmt.Sprintf("%d\n", os.Getpid())), 0o644); err != nil {
			node.Stop()
			return fmt.Errorf("writing ready file: %w", err)
		}
		defer os.Remove(*readyFile)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		// Graceful drain: stop accepting, finish what is in flight, stop
		// the node's own goroutines, exit 0.
		node.Stop()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		return srv.Shutdown(shutdownCtx)
	case err := <-errCh:
		node.Stop()
		return err
	}
}
