// Command radar-analyze summarizes a JSONL placement-event trace produced
// by radar-sim -trace (or any radar.Config.TraceWriter).
//
// Examples:
//
//	radar-sim -workload hot-sites -trace events.jsonl
//	radar-analyze events.jsonl
//	radar-analyze -top 5 events.jsonl
package main

import (
	"cmp"
	"flag"
	"fmt"
	"os"
	"slices"
	"time"

	"radar/internal/object"
	"radar/internal/topology"
	"radar/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "radar-analyze:", err)
		os.Exit(1)
	}
}

func run() error {
	top := flag.Int("top", 10, "how many hosts/objects to list")
	flag.Parse()
	if flag.NArg() != 1 {
		return fmt.Errorf("usage: radar-analyze [-top N] <trace.jsonl>")
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	events, err := trace.Read(f)
	if err != nil {
		return err
	}
	s := trace.Summarize(events)
	fmt.Printf("events: %d total\n", len(events))
	fmt.Printf("  migrations:   %d\n", s.GeoMigrations+s.LoadMigrations)
	fmt.Printf("  replications: %d\n", s.GeoReplications+s.LoadReplications+s.RepairReplications)
	fmt.Printf("  drops:        %d\n", s.Drops)
	fmt.Printf("  refusals:     %d\n", s.Refusals)
	fmt.Printf("  deferrals:    %d\n", s.DeferredMoves)
	fmt.Printf("  geo moves:    %d\n", s.GeoMigrations+s.GeoReplications)
	fmt.Printf("  load moves:   %d\n", s.LoadMigrations+s.LoadReplications)
	fmt.Printf("  repair moves: %d\n", s.RepairReplications)
	if len(events) > 0 {
		fmt.Printf("  time span:    %v .. %v\n", time.Duration(events[0].At), time.Duration(events[len(events)-1].At))
	}

	names := topology.UUNET()
	fmt.Printf("\nbusiest hosts (by initiated events):\n")
	printTop(s.ByHost, *top, func(id topology.NodeID) string {
		name := fmt.Sprintf("node %d", id)
		if int(id) < names.NumNodes() {
			name = names.Node(id).Name
		}
		return fmt.Sprintf("%-16s", name)
	})
	fmt.Printf("\nmost relocated objects:\n")
	printTop(s.ByObject, *top, func(id object.ID) string { return fmt.Sprintf("object %-8d", id) })
	return nil
}

// printTop lists the n largest counts, ties in ascending key order, each
// after its key's label.
func printTop[K cmp.Ordered](counts map[K]int, n int, label func(K) string) {
	keys := make([]K, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b K) int {
		if c := cmp.Compare(counts[b], counts[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	for i, k := range keys {
		if i >= n {
			break
		}
		fmt.Printf("  %s %d\n", label(k), counts[k])
	}
}
