// Command benchmark is the repository's performance ledger: seven
// workloads over the simulator and the live HTTP fleet, measured end to end
// and layer by layer from outside the program, by timing calls into the
// layers' exported functions. README.md in this directory has the metric
// and workload tables.
//
//	bash benchmark/run.sh -trace 1                 every workload, repeated, plus a traced run each; tables + ledger JSON
//	bash benchmark/run.sh -workload sim-zipf       one run; last stdout line is the result JSON
//	bash benchmark/run.sh -workload live-quiet -trace 1   one traced run: per-layer metrics + JSONL spans
//	bash benchmark/run.sh -compare old.json new.json      judge two ledgers by the metrics' bounds
//
// run.sh builds into .bench_build/ and passes its arguments through;
// `go run -C benchmark . ARGS` is the same without the private build cache.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// processStart is as close to the start of the process as Go code gets; a
// -setup-only process measures its set-up from here.
var processStart = time.Now()

// runOpts describes one run of one workload.
type runOpts struct {
	Workload workloadDef
	Seed     int64
	Seconds  float64
	Trace    bool
	Quick    bool
	OutDir   string
}

// childArgs are the flags that make a child process of this binary work on
// the same workload, seed, length and scale.
func (o runOpts) childArgs(w workloadDef) []string {
	args := []string{"-workload", w.Name, "-seed", strconv.FormatInt(o.Seed, 10), "-seconds", fmt.Sprint(o.Seconds)}
	if o.Quick {
		args = append(args, "-quick")
	}
	return args
}

// window is the length of a live workload's measured phase.
func (o runOpts) window() time.Duration {
	return time.Duration(o.Seconds * float64(time.Second))
}

// runLimit bounds one run, child processes included, below the 180 s a
// single run may take.
const runLimit = 170 * time.Second

func main() {
	var (
		workload  = flag.String("workload", "", "run this one workload and print its result line ("+workloadNames()+")")
		seed      = flag.Int64("seed", 1, "seed of the workload's inputs: the DSL's seed clause and the load generator's PRNG")
		seconds   = flag.Float64("seconds", runSeconds, "length of the measured phase")
		trace     = flag.String("trace", "0", "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics and a JSONL span file (ledger: one more, traced, run per workload)")
		reps      = flag.Int("reps", 0, "ledger: untraced repetitions per workload (default 3, or 5 for runs under 5 s)")
		quick     = flag.Bool("quick", false, "reduced compositions, for smoke tests")
		outDir    = flag.String("out", ".bench_build", "directory for trace files and the ledger")
		setupOnly = flag.Bool("setup-only", false, "set the workload up, print the seconds it took, and exit")
		compare   = flag.Bool("compare", false, "compare two ledger files given as arguments; exit 1 if any metric is worse")
		printSpec = flag.Bool("print-benchmark-json", false, "print the BENCHMARK.json that matches this program's spec, and exit")
	)
	flag.Parse()
	traced, err := parseTrace(*trace)
	if err != nil {
		fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()

	switch {
	case *printSpec:
		if err := printBenchmarkJSON(os.Stdout); err != nil {
			fatal(err)
		}
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two ledger files"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
	case *workload == "":
		o := runOpts{Seed: *seed, Seconds: *seconds, Trace: traced, Quick: *quick, OutDir: *outDir}
		ok, err := runLedger(o, *reps)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	default:
		w, ok := workloadByName(*workload)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q (have %s)", *workload, workloadNames()))
		}
		o := runOpts{Workload: w, Seed: *seed, Seconds: *seconds, Trace: traced, Quick: *quick, OutDir: *outDir}
		if *setupOnly {
			if err := setUpOnly(ctx, o); err != nil {
				fatal(err)
			}
			return
		}
		if !runOne(ctx, o) {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// parseTrace accepts the driver's 0/1 and the usual boolean spellings.
func parseTrace(s string) (bool, error) {
	v, err := strconv.ParseBool(s)
	if err != nil {
		return false, fmt.Errorf("-trace %q: want 0 or 1", s)
	}
	return v, nil
}

// runOne measures one workload once, prints every metric by name and ends
// standard output with the detail line and the result line. It reports
// whether every output check passed.
func runOne(ctx context.Context, o runOpts) bool {
	rep := newReport()
	var err error
	if o.Trace {
		err = runTraced(ctx, o, rep)
	} else {
		ref := newRefLoop()
		setups := &setupSampler{o: o, ref: ref}
		setups.sample(rep)
		switch o.Workload.Kind {
		case kindSim:
			err = runSimWorkload(o, ref, rep)
		case kindReplay:
			err = runReplayWorkload(ctx, o, ref, rep)
		default:
			err = runLiveWorkload(ctx, o, ref, rep)
		}
		setups.sample(rep)
		setups.report(rep)
	}
	if err != nil {
		rep.problem("%s: %v", o.Workload.Name, err)
	}
	defs, required := endToEnd, true
	if o.Trace {
		defs, required = perLayer, false
	}
	line, detail := rep.lines(defs, required)
	rep.printHuman(os.Stdout, fmt.Sprintf("%s seed=%d seconds=%g trace=%v  %s", o.Workload.Name, o.Seed, o.Seconds, o.Trace, stampOf(o.Seed, 1)))
	if err := writeLines(os.Stdout, line, detail); err != nil {
		fatal(err)
	}
	return line.Correct
}

// setUpOnly performs the workload's set-up exactly as a measuring run does
// and prints how long it took since the process started — DSL parse,
// substrate and routing build, sim.New or fleet start, readiness and
// warm-up: one cold sample of setup_s.
func setUpOnly(ctx context.Context, o runOpts) error {
	switch o.Workload.Kind {
	case kindSim:
		if _, _, err := setupSim(o); err != nil {
			return err
		}
	case kindReplay:
		cfg, err := buildLiveConfig(o.Workload, o.Seed, o.Quick)
		if err != nil {
			return err
		}
		f, err := startFleet(cfg, nil)
		if err != nil {
			return err
		}
		defer f.close()
	default:
		ls, err := setupLive(ctx, o, nil)
		if err != nil {
			return err
		}
		defer ls.close()
	}
	fmt.Println(time.Since(processStart).Seconds())
	return nil
}

// setupSampler collects cold samples of a workload's set-up from fresh
// processes of this binary run one after another (-setup-only): the PR
// driver judges setup_s run by run, so one run has to hold several cold
// set-ups, and only another process is cold. A run samples twice, before
// its own set-up and after its measured phase, so the samples come from two
// stretches of time half a minute apart: on a shared machine a burst of
// interference that inflates one cluster leaves the median to the other.
// Like the throughput, a sample is counted in reference seconds: the
// child's own time divided by how much slower than nominal the laps on
// either side of it ran (a set-up slows by half to three quarters of what
// the loop does, so this removes most, not all, of the machine's mood).
type setupSampler struct {
	o       runOpts
	ref     *refLoop
	samples []float64
}

// A call to sample takes setupClusterMin samples, and goes on to
// setupClusterMax while the cluster has taken under setupClusterTime: the
// simulator's set-ups are a few hundredths of a second each, the fleet's a
// third of a second.
const (
	setupClusterMin  = 5
	setupClusterMax  = 15
	setupClusterTime = time.Second
)

func (ss *setupSampler) sample(rep *report) {
	self, err := os.Executable()
	if err != nil {
		rep.problem("locating the benchmark binary: %v", err)
		return
	}
	args := append(ss.o.childArgs(ss.o.Workload), "-setup-only")
	began := time.Now()
	before := ss.ref.lap()
	for n := 0; n < setupClusterMax && (n < setupClusterMin || time.Since(began) < setupClusterTime); n++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		out, err := exec.CommandContext(ctx, self, args...).Output()
		cancel()
		if err != nil {
			rep.problem("set-up child: %v", err)
			return
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
		if err != nil {
			rep.problem("set-up child printed %q", out)
			return
		}
		after := ss.ref.lap()
		ss.samples = append(ss.samples, v/block{laps: []float64{before, after}}.level())
		before = after
	}
}

// report sets setup_s to the median of the samples.
func (ss *setupSampler) report(rep *report) {
	if len(ss.samples) > 0 {
		rep.set("setup_s", median(ss.samples), len(ss.samples))
	}
}

// tracePath names a run's JSONL span file.
func tracePath(o runOpts) string {
	return filepath.Join(o.OutDir, fmt.Sprintf("trace-%s-seed%d.jsonl", o.Workload.Name, o.Seed))
}
