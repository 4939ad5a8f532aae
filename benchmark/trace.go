package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded from
// the benchmark's side of each call into the program (and, for the live
// fleet, from a middleware around each node's handler); spans inside the
// program are a later change.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for a root
	Req    int64  `json:"req"`    // request the span belongs to; 0 for none
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	next  int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// newID reserves a span ID before the span ends, so children started in the
// meantime (a server handler under a client hop) can name their parent.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return id
}

// add records a finished span under a reserved ID (0 reserves one now).
func (t *tracer) add(id, parent, req int64, name string, start, end int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if id == 0 {
		t.next++
		id = t.next
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end})
	t.mu.Unlock()
}

// region times fn as a span under parent.
func (t *tracer) region(parent int64, name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	start := t.now()
	fn()
	t.add(0, parent, 0, name, start, t.now())
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTime is one span name's totals: Total sums the spans' durations, Self
// sums each span's duration minus the part of it its children cover.
type selfTime struct {
	Name  string  `json:"name"`
	Count int     `json:"count"`
	Total float64 `json:"total_ms"`
	Self  float64 `json:"self_ms"`
}

// selfTimes computes the self-time summary. A span's children are clipped
// to the span and their union is subtracted, so overlapping children (two
// peer RPCs in flight under one placement pass) are not counted twice.
func selfTimes(spans []span) []selfTime {
	children := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	byName := make(map[string]*selfTime)
	for _, s := range spans {
		dur := s.End - s.Start
		covered := int64(0)
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i][0] < kids[j][0] })
		edge := s.Start
		for _, k := range kids {
			lo, hi := max(k[0], edge), min(k[1], s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		st := byName[s.Name]
		if st == nil {
			st = &selfTime{Name: s.Name}
			byName[s.Name] = st
		}
		st.Count++
		st.Total += float64(dur) / 1e6
		st.Self += float64(dur-covered) / 1e6
	}
	out := make([]selfTime, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// writeTrace writes the spans as JSONL, one span per line, followed by one
// {"self_time": [...]} line carrying the summary.
func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("writing trace %s: %w", path, err)
		}
	}
	if err := enc.Encode(map[string][]selfTime{"self_time": selfTimes(spans)}); err != nil {
		f.Close()
		return fmt.Errorf("writing trace %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing trace %s: %w", path, err)
	}
	return f.Close()
}
