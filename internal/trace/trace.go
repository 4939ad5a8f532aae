// Package trace records placement activity as a JSONL stream of protocol
// events (migrations, replications, drops, refusals, deferrals) for
// debugging and offline analysis. A line is one protocol.Event in its wire
// form. NewWriter records the stream (radar-sim -trace); Read parses it
// back and Summarize aggregates it (radar-analyze).
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"radar/internal/metrics"
	"radar/internal/object"
	"radar/internal/protocol"
	"radar/internal/topology"
)

// NewWriter returns a Recorder that writes every event to w as one JSON
// line. Wire it as (or inside) a simulation observer; it is not safe for
// concurrent use. Writing stops at the first error.
func NewWriter(w io.Writer) protocol.Recorder {
	enc := json.NewEncoder(w)
	var err error
	return func(e protocol.Event) {
		if err == nil {
			err = enc.Encode(e)
		}
	}
}

// Read parses a JSONL placement trace; an event that does not validate is
// an error.
func Read(r io.Reader) ([]protocol.Event, error) {
	var out []protocol.Event
	dec := json.NewDecoder(bufio.NewReader(r))
	for {
		var e protocol.Event
		err := dec.Decode(&e)
		if err == io.EOF {
			return out, nil
		}
		if err == nil {
			err = e.Validate()
		}
		if err != nil {
			return out, fmt.Errorf("trace: parsing event %d: %w", len(out)+1, err)
		}
		out = append(out, e)
	}
}

// Summary aggregates a placement trace.
type Summary struct {
	// Counters counts the decisions as the simulator's collector does;
	// Requests and FailedRequests stay zero.
	metrics.Counters
	// ByHost counts events initiated per host.
	ByHost map[topology.NodeID]int
	// ByObject counts events per object.
	ByObject map[object.ID]int
}

// Summarize aggregates events into decision counters and per-host and
// per-object event counts.
func Summarize(events []protocol.Event) Summary {
	s := Summary{
		ByHost:   make(map[topology.NodeID]int),
		ByObject: make(map[object.ID]int),
	}
	for _, e := range events {
		s.Add(e)
		s.ByHost[topology.NodeID(e.From)]++
		s.ByObject[object.ID(e.Object)]++
	}
	return s
}
