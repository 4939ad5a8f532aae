package store

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"radar/internal/fault"
	"radar/internal/workload"
)

// The store DSL describes one per-host backend stack:
//
//	term := mem[:CAP]                          resident tier, CAP replicas (0/absent = unbounded)
//	      | disk[:LATENCY]                     unbounded slow tier (default 5ms per read)
//	      | cache(mem[:CAP], term)             bounded LRU memory tier over an authoritative tier
//	      | mirror(term, term)                 paired backends with read-repair
//	      | faulty(term[, mtbf:D][, mttr:D][, penalty:D])   backend outages (defaults 2m/30s/25ms)
//
// Examples: "mem", "cache(mem:64, disk:5ms)",
// "mirror(faulty(mem), mem)".
// The zero Spec (and "mem") is the default stack and is byte-identical to
// the pre-store simulator.

// ErrSpec tags every store-DSL parse error.
var ErrSpec = errors.New("store: bad spec")

// Parse/safety limits: deep or enormous stacks are configuration errors
// (and keep fuzzing honest).
const (
	maxSpecLen   = 256
	maxDepth     = 6
	maxTerms     = 16
	maxCap       = 1 << 20
	maxLatency   = 10 * time.Second
	minMTBF      = time.Second
	maxCycleSpan = 24 * time.Hour
)

// Defaults for optional DSL parameters.
const (
	defaultDiskLatency = 5 * time.Millisecond
	defaultCacheCap    = 128
	defaultMTBF        = 2 * time.Minute
	defaultMTTR        = 30 * time.Second
	defaultPenalty     = 25 * time.Millisecond
)

// storeStream is the base of the PRNG sub-stream range reserved for
// backend fault timelines: stream storeStream | node<<8 | faultyIndex.
// Gateways use streams 0..n-1, the fault timeline 1<<32, the control
// plane 1<<33; this range is disjoint from all of them.
const storeStream uint64 = 1 << 34

// term is one parsed stack node.
type term struct {
	kind    string // "mem", "disk", "cache", "mirror", "faulty"
	cap     int    // mem replica bound (0 = unbounded)
	latency time.Duration
	mtbf    time.Duration
	mttr    time.Duration
	penalty time.Duration
	kids    []*term
}

// Spec is a parsed, validated store stack description. The zero value is
// the default unbounded memory stack. Specs are immutable after parsing
// and safe to copy.
type Spec struct {
	root *term
}

// IsDefault reports whether the spec is the plain unbounded memory stack
// (the zero value or "mem"), whose runs are byte-identical to the
// pre-store simulator.
func (sp Spec) IsDefault() bool {
	return sp.root == nil || (sp.root.kind == "mem" && sp.root.cap == 0)
}

// String renders the spec in canonical DSL form; ParseSpec(sp.String())
// round-trips.
func (sp Spec) String() string {
	if sp.root == nil {
		return "mem"
	}
	var b strings.Builder
	writeTerm(&b, sp.root)
	return b.String()
}

func writeTerm(b *strings.Builder, t *term) {
	switch t.kind {
	case "mem":
		b.WriteString("mem")
		if t.cap > 0 {
			fmt.Fprintf(b, ":%d", t.cap)
		}
	case "disk":
		fmt.Fprintf(b, "disk:%s", t.latency)
	case "cache", "mirror":
		b.WriteString(t.kind)
		b.WriteByte('(')
		writeTerm(b, t.kids[0])
		b.WriteByte(',')
		writeTerm(b, t.kids[1])
		b.WriteByte(')')
	case "faulty":
		b.WriteString("faulty(")
		writeTerm(b, t.kids[0])
		fmt.Fprintf(b, ",mtbf:%s,mttr:%s,penalty:%s", t.mtbf, t.mttr, t.penalty)
		b.WriteByte(')')
	}
}

// ParseSpec parses a store-DSL term. The empty string is the default
// stack. Errors wrap ErrSpec.
func ParseSpec(s string) (Spec, error) {
	if strings.TrimSpace(s) == "" {
		return Spec{}, nil
	}
	if len(s) > maxSpecLen {
		return Spec{}, fmt.Errorf("%w: %d bytes exceeds the %d-byte limit", ErrSpec, len(s), maxSpecLen)
	}
	p := &parser{s: s}
	root, err := p.parseTerm(0)
	if err != nil {
		return Spec{}, err
	}
	p.skipSpace()
	if p.i != len(p.s) {
		return Spec{}, fmt.Errorf("%w: trailing input %q", ErrSpec, p.s[p.i:])
	}
	return Spec{root: root}, nil
}

// parser is a recursive-descent scanner over the DSL term.
type parser struct {
	s     string
	i     int
	terms int
}

func (p *parser) skipSpace() {
	for p.i < len(p.s) && (p.s[p.i] == ' ' || p.s[p.i] == '\t') {
		p.i++
	}
}

// ident scans a lowercase keyword.
func (p *parser) ident() string {
	start := p.i
	for p.i < len(p.s) && p.s[p.i] >= 'a' && p.s[p.i] <= 'z' {
		p.i++
	}
	return p.s[start:p.i]
}

// expect consumes c or fails.
func (p *parser) expect(c byte) error {
	p.skipSpace()
	if p.i >= len(p.s) || p.s[p.i] != c {
		return fmt.Errorf("%w: expected %q at offset %d", ErrSpec, string(c), p.i)
	}
	p.i++
	return nil
}

// peek returns the next non-space byte without consuming it (0 at end).
func (p *parser) peek() byte {
	p.skipSpace()
	if p.i >= len(p.s) {
		return 0
	}
	return p.s[p.i]
}

// scanValue consumes a value token: everything up to the next ',' / ')' /
// end, trimmed.
func (p *parser) scanValue() string {
	p.skipSpace()
	start := p.i
	for p.i < len(p.s) && p.s[p.i] != ',' && p.s[p.i] != ')' {
		p.i++
	}
	return strings.TrimSpace(p.s[start:p.i])
}

func (p *parser) duration(what string, min, max time.Duration) (time.Duration, error) {
	v := p.scanValue()
	d, err := time.ParseDuration(v)
	if err != nil {
		return 0, fmt.Errorf("%w: bad %s duration %q", ErrSpec, what, v)
	}
	if d < min || d > max {
		return 0, fmt.Errorf("%w: %s %s out of range [%s, %s]", ErrSpec, what, d, min, max)
	}
	return d, nil
}

func (p *parser) parseTerm(depth int) (*term, error) {
	if depth > maxDepth {
		return nil, fmt.Errorf("%w: nesting exceeds depth %d", ErrSpec, maxDepth)
	}
	p.terms++
	if p.terms > maxTerms {
		return nil, fmt.Errorf("%w: more than %d terms", ErrSpec, maxTerms)
	}
	p.skipSpace()
	switch kw := p.ident(); kw {
	case "mem":
		t := &term{kind: "mem"}
		if p.peek() == ':' {
			p.i++
			v := p.scanValue()
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 || n > maxCap {
				return nil, fmt.Errorf("%w: bad mem capacity %q (want 0..%d)", ErrSpec, v, maxCap)
			}
			t.cap = n
		}
		return t, nil
	case "disk":
		t := &term{kind: "disk", latency: defaultDiskLatency}
		if p.peek() == ':' {
			p.i++
			d, err := p.duration("disk latency", time.Nanosecond, maxLatency)
			if err != nil {
				return nil, err
			}
			t.latency = d
		}
		return t, nil
	case "cache":
		if err := p.expect('('); err != nil {
			return nil, err
		}
		fast, err := p.parseTerm(depth + 1)
		if err != nil {
			return nil, err
		}
		if fast.kind != "mem" {
			return nil, fmt.Errorf("%w: cache fast tier must be a mem term, got %s", ErrSpec, fast.kind)
		}
		if err := p.expect(','); err != nil {
			return nil, err
		}
		slow, err := p.parseTerm(depth + 1)
		if err != nil {
			return nil, err
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		return &term{kind: "cache", kids: []*term{fast, slow}}, nil
	case "mirror":
		if err := p.expect('('); err != nil {
			return nil, err
		}
		a, err := p.parseTerm(depth + 1)
		if err != nil {
			return nil, err
		}
		if err := p.expect(','); err != nil {
			return nil, err
		}
		b, err := p.parseTerm(depth + 1)
		if err != nil {
			return nil, err
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		return &term{kind: "mirror", kids: []*term{a, b}}, nil
	case "faulty":
		if err := p.expect('('); err != nil {
			return nil, err
		}
		inner, err := p.parseTerm(depth + 1)
		if err != nil {
			return nil, err
		}
		t := &term{kind: "faulty", kids: []*term{inner},
			mtbf: defaultMTBF, mttr: defaultMTTR, penalty: defaultPenalty}
		for p.peek() == ',' {
			p.i++
			p.skipSpace()
			key := p.ident()
			if err := p.expect(':'); err != nil {
				return nil, err
			}
			switch key {
			case "mtbf":
				if t.mtbf, err = p.duration("mtbf", minMTBF, maxCycleSpan); err != nil {
					return nil, err
				}
			case "mttr":
				if t.mttr, err = p.duration("mttr", time.Millisecond, maxCycleSpan); err != nil {
					return nil, err
				}
			case "penalty":
				if t.penalty, err = p.duration("penalty", 0, maxLatency); err != nil {
					return nil, err
				}
			default:
				return nil, fmt.Errorf("%w: unknown faulty option %q", ErrSpec, key)
			}
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		return t, nil
	case "":
		return nil, fmt.Errorf("%w: expected a term at offset %d", ErrSpec, p.i)
	default:
		return nil, fmt.Errorf("%w: unknown backend %q", ErrSpec, kw)
	}
}

// Params are the run parameters a stack is built against.
type Params struct {
	// Seed is the run's master seed (fault timelines draw from a
	// reserved sub-stream of it).
	Seed int64
	// Horizon bounds backend fault timelines.
	Horizon time.Duration
	// ObjBytes is the per-replica size for byte accounting.
	ObjBytes int64
}

// Build constructs the stack for one host. Equal (spec, node, params)
// always build identically-behaving stacks.
func (sp Spec) Build(node int, p Params) (ReplicaStore, error) {
	t := sp.root
	if t == nil {
		t = &term{kind: "mem"}
	}
	faultyIdx := 0
	return buildTerm(t, node, p, &faultyIdx)
}

func buildTerm(t *term, node int, p Params, faultyIdx *int) (ReplicaStore, error) {
	switch t.kind {
	case "mem":
		label := "mem"
		if t.cap > 0 {
			label = fmt.Sprintf("mem:%d", t.cap)
		}
		return NewMemory(label, t.cap, p.ObjBytes), nil
	case "disk":
		return NewDisk(fmt.Sprintf("disk:%s", t.latency), t.latency, p.ObjBytes), nil
	case "cache":
		fast, err := buildTerm(t.kids[0], node, p, faultyIdx)
		if err != nil {
			return nil, err
		}
		slow, err := buildTerm(t.kids[1], node, p, faultyIdx)
		if err != nil {
			return nil, err
		}
		capacity := t.kids[0].cap
		if capacity == 0 {
			capacity = defaultCacheCap
		}
		return NewCache(fast, slow, capacity), nil
	case "mirror":
		a, err := buildTerm(t.kids[0], node, p, faultyIdx)
		if err != nil {
			return nil, err
		}
		b, err := buildTerm(t.kids[1], node, p, faultyIdx)
		if err != nil {
			return nil, err
		}
		return NewMirror(a, b), nil
	case "faulty":
		inner, err := buildTerm(t.kids[0], node, p, faultyIdx)
		if err != nil {
			return nil, err
		}
		// Each faulty layer on each node gets its own reserved stream, so
		// stack shape and node count never shift another layer's draws.
		stream := storeStream | uint64(node)<<8 | uint64(*faultyIdx)
		*faultyIdx++
		rng := workload.Stream(p.Seed, stream)
		timeline, err := fault.Cycles(p.Horizon, t.mtbf, t.mttr, rng)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrSpec, err)
		}
		return NewFaulty(inner, timeline, t.penalty), nil
	default:
		return nil, fmt.Errorf("%w: unknown term kind %q", ErrSpec, t.kind)
	}
}
