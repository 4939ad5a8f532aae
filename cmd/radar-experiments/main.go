// Command radar-experiments regenerates every table and figure of the
// paper's evaluation (§6): the Figure 6 bandwidth/latency comparison, the
// Figure 7 overhead analysis, the Figure 8a/8b load plots, Table 2, the
// Figure 9 high-load rerun, and the ablations documented in DESIGN.md.
//
// Independent simulations fan out over a bounded worker pool (the
// experiments engine); -parallelism bounds the pool and every level
// produces identical tables.
//
// Examples:
//
//	radar-experiments                  # full paper scale, GOMAXPROCS-wide
//	radar-experiments -quick           # reduced scale
//	radar-experiments -parallelism 1   # sequential (same results, slower)
//	radar-experiments -only figures    # skip the ablations
//	radar-experiments -csv out/        # also dump the series data
//	radar-experiments -times           # include per-run wall-clock tables
//	radar-experiments -only corpus     # scenario corpus: legacy vs availability-aware vs oracle
//	radar-experiments -scenario correlated-rack-failures   # one corpus scenario
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"radar/internal/experiments"
	"radar/internal/report"
	"radar/internal/scenario"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "radar-experiments:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		seed        = flag.Int64("seed", 1, "random seed")
		quick       = flag.Bool("quick", false, "reduced scale (2000 objects, halved durations)")
		only        = flag.String("only", "all", "what to run: all | figures | figure9 | ablations | multiseed | faults | ctrl | corpus")
		scenarioSel = flag.String("scenario", "", "run the corpus comparison for one named scenario (see internal/scenario)")
		seeds       = flag.Int("seeds", 3, "number of seeds for -only multiseed")
		csvDir      = flag.String("csv", "", "directory for per-figure series CSVs")
		parallelism = flag.Int("parallelism", 0, "concurrent simulations (0 = GOMAXPROCS, 1 = sequential); results are identical at any level")
		times       = flag.Bool("times", false, "also print per-run wall-clock tables (non-deterministic output)")
	)
	flag.Parse()
	opts := experiments.Options{Seed: *seed, Quick: *quick, Parallelism: *parallelism}
	start := time.Now()

	if *scenarioSel != "" || *only == "corpus" {
		fmt.Println("== Scenario corpus ==")
		var scens []scenario.Scenario
		if *scenarioSel != "" {
			sc, ok := scenario.ByName(*scenarioSel)
			if !ok {
				return fmt.Errorf("unknown scenario %q (known: %v)", *scenarioSel, scenario.Names())
			}
			scens = []scenario.Scenario{sc}
		}
		rep, err := experiments.RunCorpus(opts, scens)
		if err != nil {
			return err
		}
		if err := rep.Table.Render(os.Stdout); err != nil {
			return err
		}
		fmt.Printf("(wall time %v)\n", time.Since(start).Round(time.Second))
		return nil
	}

	for _, s := range []struct {
		only, title string
		highLoad    bool
	}{
		{"figures", "== Paper suite (Table 1 parameters, low load) ==", false},
		{"figure9", "== Figure 9 (high load: hw=50, lw=40) ==", true},
	} {
		if *only != "all" && *only != s.only {
			continue
		}
		fmt.Println(s.title)
		suite, err := experiments.RunSuite(opts, s.highLoad)
		if err != nil {
			return err
		}
		if err := suite.RenderAll(os.Stdout); err != nil {
			return err
		}
		if *times {
			if err := suite.Timing().Render(os.Stdout); err != nil {
				return err
			}
			fmt.Println()
		}
		if *csvDir != "" {
			if err := suite.WriteCSVs(*csvDir); err != nil {
				return err
			}
		}
	}

	if *only == "multiseed" {
		fmt.Printf("== Paper suite across %d seeds ==\n", *seeds)
		list := make([]int64, *seeds)
		for i := range list {
			list[i] = *seed + int64(i)
		}
		ms, err := experiments.RunMultiSeed(opts, list, false)
		if err != nil {
			return err
		}
		if err := ms.Table().Render(os.Stdout); err != nil {
			return err
		}
		if *times {
			if err := ms.Timing().Render(os.Stdout); err != nil {
				return err
			}
		}
	}

	for _, s := range []struct {
		only, title string
		run         func(experiments.Options) (*report.Table, error)
	}{
		{"faults", "== Fault injection ==", experiments.RunFaultScenario},
		{"ctrl", "== Unreliable control plane ==", experiments.RunCtrlScenario},
	} {
		if *only != s.only {
			continue
		}
		fmt.Println(s.title)
		tbl, err := s.run(opts)
		if err != nil {
			return err
		}
		if err := tbl.Render(os.Stdout); err != nil {
			return err
		}
	}

	if *only == "all" || *only == "ablations" {
		fmt.Println("== Ablations ==")
		tables, err := experiments.RunAblations(opts)
		if err != nil {
			return err
		}
		for _, tbl := range tables {
			if err := tbl.Render(os.Stdout); err != nil {
				return err
			}
			fmt.Println()
		}
	}

	fmt.Printf("(wall time %v)\n", time.Since(start).Round(time.Second))
	return nil
}
