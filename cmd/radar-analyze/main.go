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
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

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
	fmt.Printf("  migrations:   %d\n", s.Migrations)
	fmt.Printf("  replications: %d\n", s.Replications)
	fmt.Printf("  drops:        %d\n", s.Drops)
	fmt.Printf("  refusals:     %d\n", s.Refusals)
	fmt.Printf("  deferrals:    %d\n", s.Deferrals)
	fmt.Printf("  geo moves:    %d\n", s.GeoMoves)
	fmt.Printf("  load moves:   %d\n", s.LoadMoves)
	fmt.Printf("  repair moves: %d\n", s.RepairMoves)
	if len(events) > 0 {
		fmt.Printf("  time span:    %v .. %v\n", time.Duration(events[0].At), time.Duration(events[len(events)-1].At))
	}

	names := topology.UUNET()
	fmt.Printf("\nbusiest hosts (by initiated events):\n")
	type kv struct {
		id topology.NodeID
		n  int
	}
	var hosts []kv
	for id, n := range s.ByHost {
		hosts = append(hosts, kv{id, n})
	}
	sort.Slice(hosts, func(i, j int) bool {
		if hosts[i].n != hosts[j].n {
			return hosts[i].n > hosts[j].n
		}
		return hosts[i].id < hosts[j].id
	})
	for i, h := range hosts {
		if i >= *top {
			break
		}
		name := fmt.Sprintf("node %d", h.id)
		if int(h.id) < names.NumNodes() {
			name = names.Node(h.id).Name
		}
		fmt.Printf("  %-16s %d\n", name, h.n)
	}

	fmt.Printf("\nmost relocated objects:\n")
	type ov struct {
		id int
		n  int
	}
	var objs []ov
	for id, n := range s.ByObject {
		objs = append(objs, ov{int(id), n})
	}
	sort.Slice(objs, func(i, j int) bool {
		if objs[i].n != objs[j].n {
			return objs[i].n > objs[j].n
		}
		return objs[i].id < objs[j].id
	})
	for i, o := range objs {
		if i >= *top {
			break
		}
		fmt.Printf("  object %-8d %d\n", o.id, o.n)
	}
	return nil
}
