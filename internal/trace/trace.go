// Package trace records placement activity as a JSONL stream of protocol
// events (migrations, replications, drops, refusals, deferrals) for
// debugging and offline analysis. Writer implements protocol.Observer
// (radar-sim -trace writes the stream); Reader parses it back and
// Summarize aggregates it (radar-analyze).
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"radar/internal/object"
	"radar/internal/protocol"
	"radar/internal/topology"
)

// Event is one placement protocol event.
type Event struct {
	// T is the virtual time in seconds.
	T float64 `json:"t"`
	// Kind is one of "migrate", "replicate", "drop", "refuse", "defer".
	Kind string `json:"ev"`
	// Object is the object acted on.
	Object object.ID `json:"obj"`
	// From is the initiating host (the dropping host for "drop").
	From topology.NodeID `json:"from"`
	// To is the receiving host; absent for "drop".
	To topology.NodeID `json:"to,omitempty"`
	// Move is "geo" or "load" for migrations/replications.
	Move string `json:"move,omitempty"`
	// Method is "MIGRATE", "REPLICATE" or "REPAIR" for refusals and deferrals.
	Method string `json:"method,omitempty"`
}

// Writer streams placement events as JSONL. It implements
// protocol.Observer; wire it as (or inside) a simulation observer. Writer
// is not safe for concurrent use — the simulation is single-threaded.
type Writer struct {
	enc *json.Encoder
	err error
	n   int64
}

// NewWriter returns a Writer emitting to w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{enc: json.NewEncoder(w)}
}

// Err returns the first write error encountered, if any.
func (w *Writer) Err() error { return w.err }

// Count returns the number of events written.
func (w *Writer) Count() int64 { return w.n }

func (w *Writer) emit(e Event) {
	if w.err != nil {
		return
	}
	if err := w.enc.Encode(e); err != nil {
		w.err = fmt.Errorf("trace: %w", err)
		return
	}
	w.n++
}

// OnMigrate implements protocol.Observer.
func (w *Writer) OnMigrate(now time.Duration, id object.ID, from, to topology.NodeID, kind protocol.MoveKind) {
	w.emit(Event{T: now.Seconds(), Kind: "migrate", Object: id, From: from, To: to, Move: kind.String()})
}

// OnReplicate implements protocol.Observer.
func (w *Writer) OnReplicate(now time.Duration, id object.ID, from, to topology.NodeID, kind protocol.MoveKind) {
	w.emit(Event{T: now.Seconds(), Kind: "replicate", Object: id, From: from, To: to, Move: kind.String()})
}

// OnDrop implements protocol.Observer.
func (w *Writer) OnDrop(now time.Duration, id object.ID, host topology.NodeID) {
	w.emit(Event{T: now.Seconds(), Kind: "drop", Object: id, From: host})
}

// OnRefuse implements protocol.Observer.
func (w *Writer) OnRefuse(now time.Duration, id object.ID, from, to topology.NodeID, method protocol.Method) {
	w.emit(Event{T: now.Seconds(), Kind: "refuse", Object: id, From: from, To: to, Method: method.String()})
}

// OnDefer implements protocol.Observer.
func (w *Writer) OnDefer(now time.Duration, id object.ID, from, to topology.NodeID, method protocol.Method) {
	w.emit(Event{T: now.Seconds(), Kind: "defer", Object: id, From: from, To: to, Method: method.String()})
}

// Read parses a JSONL placement trace.
func Read(r io.Reader) ([]Event, error) {
	var out []Event
	dec := json.NewDecoder(bufio.NewReader(r))
	for {
		var e Event
		if err := dec.Decode(&e); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return out, fmt.Errorf("trace: parsing event %d: %w", len(out)+1, err)
		}
		out = append(out, e)
	}
}

// Summary aggregates a placement trace.
type Summary struct {
	Migrations   int
	Replications int
	Drops        int
	Refusals     int
	GeoMoves     int
	LoadMoves    int
	// ByHost counts events initiated per host.
	ByHost map[topology.NodeID]int
	// ByObject counts events per object.
	ByObject map[object.ID]int
}

// Summarize aggregates events into per-kind, per-host and per-object
// counts.
func Summarize(events []Event) Summary {
	s := Summary{
		ByHost:   make(map[topology.NodeID]int),
		ByObject: make(map[object.ID]int),
	}
	for _, e := range events {
		switch e.Kind {
		case "migrate":
			s.Migrations++
		case "replicate":
			s.Replications++
		case "drop":
			s.Drops++
		case "refuse":
			s.Refusals++
		}
		switch e.Move {
		case "geo":
			s.GeoMoves++
		case "load":
			s.LoadMoves++
		}
		s.ByHost[e.From]++
		s.ByObject[e.Object]++
	}
	return s
}
