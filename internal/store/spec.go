package store

import (
	"container/list"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"radar/internal/object"
)

// The store DSL describes one per-host stack:
//
//	spec := tier
//	      | cache(mem[:CAP], tier)     bounded LRU memory tier over an authoritative tier
//	tier := mem[:CAP]                  resident tier, CAP replicas (0/absent = unbounded)
//	      | disk[:LATENCY]             unbounded slow tier (default 5ms per read)
//
// Examples: "mem", "disk:2ms", "cache(mem:64, disk:5ms)". Caches do not
// nest. The zero Spec (and "mem") is the default stack and is
// byte-identical to the pre-store simulator.

// ErrSpec tags every store-DSL parse error.
var ErrSpec = errors.New("store: bad spec")

// Parse limits: enormous specs are configuration errors (and keep fuzzing
// honest).
const (
	maxSpecLen = 256
	maxCap     = 1 << 20
	maxLatency = 10 * time.Second
)

// Defaults for optional DSL parameters.
const (
	defaultDiskLatency = 5 * time.Millisecond
	defaultCacheCap    = 128
)

// tier is one parsed tier: a mem tier of cap replicas (0 = unbounded) when
// latency is zero, an unbounded disk tier otherwise.
type tier struct {
	cap     int
	latency time.Duration
}

// String is the tier's canonical term, which is also its layer label.
func (t tier) String() string {
	switch {
	case t.latency > 0:
		return "disk:" + t.latency.String()
	case t.cap > 0:
		return "mem:" + strconv.Itoa(t.cap)
	}
	return "mem"
}

// Spec is a parsed, validated store stack description. The zero value is
// the default unbounded memory stack. Specs are immutable and comparable.
type Spec struct {
	auth   tier
	cached bool // cache(mem:front, auth)
	front  int  // the memory tier's CAP (0 = the default LRU capacity)
}

// IsDefault reports whether the spec is the plain unbounded memory stack
// (the zero value or "mem"), whose runs are byte-identical to the
// pre-store simulator.
func (sp Spec) IsDefault() bool { return sp == Spec{} }

// String renders the spec in canonical DSL form; ParseSpec(sp.String())
// round-trips.
func (sp Spec) String() string {
	if !sp.cached {
		return sp.auth.String()
	}
	return "cache(" + tier{cap: sp.front}.String() + "," + sp.auth.String() + ")"
}

// ParseSpec parses a store-DSL spec. The empty string is the default
// stack. Errors wrap ErrSpec.
func ParseSpec(s string) (Spec, error) {
	if strings.TrimSpace(s) == "" {
		return Spec{}, nil
	}
	if len(s) > maxSpecLen {
		return Spec{}, fmt.Errorf("%w: %d bytes exceeds the %d-byte limit", ErrSpec, len(s), maxSpecLen)
	}
	kw, rest := keyword(s)
	if kw != "cache" {
		auth, err := parseTier(kw, rest)
		return Spec{auth: auth}, err
	}
	args, open := strings.CutPrefix(rest, "(")
	args, closed := strings.CutSuffix(args, ")")
	fastTerm, authTerm, comma := strings.Cut(args, ",")
	if !open || !closed || !comma {
		return Spec{}, fmt.Errorf("%w: want cache(mem[:CAP], TIER), got %q", ErrSpec, s)
	}
	fkw, frest := keyword(fastTerm)
	if fkw != "mem" {
		return Spec{}, fmt.Errorf("%w: cache fast tier must be a mem term, got %q", ErrSpec, fkw)
	}
	fast, err := parseTier(fkw, frest)
	if err != nil {
		return Spec{}, err
	}
	akw, arest := keyword(authTerm)
	if akw == "cache" {
		return Spec{}, fmt.Errorf("%w: caches do not nest", ErrSpec)
	}
	auth, err := parseTier(akw, arest)
	return Spec{auth: auth, cached: true, front: fast.cap}, err
}

// keyword splits s, less surrounding blanks, into its leading lowercase
// word and the rest after it, less leading blanks.
func keyword(s string) (kw, rest string) {
	s = strings.Trim(s, " \t")
	i := 0
	for i < len(s) && s[i] >= 'a' && s[i] <= 'z' {
		i++
	}
	return s[:i], strings.TrimLeft(s[i:], " \t")
}

// parseTier parses a mem or disk term: kw and, in rest, an optional
// ":VALUE".
func parseTier(kw, rest string) (tier, error) {
	if kw != "mem" && kw != "disk" {
		return tier{}, fmt.Errorf("%w: unknown backend %q", ErrSpec, kw)
	}
	t := tier{}
	if kw == "disk" {
		t.latency = defaultDiskLatency
	}
	if rest == "" {
		return t, nil
	}
	v, ok := strings.CutPrefix(rest, ":")
	if !ok {
		return tier{}, fmt.Errorf("%w: trailing input %q", ErrSpec, rest)
	}
	v = strings.TrimSpace(v)
	if kw == "mem" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 || n > maxCap {
			return tier{}, fmt.Errorf("%w: bad mem capacity %q (want 0..%d)", ErrSpec, v, maxCap)
		}
		t.cap = n
		return t, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil {
		return tier{}, fmt.Errorf("%w: bad disk latency duration %q", ErrSpec, v)
	}
	if d < time.Nanosecond || d > maxLatency {
		return tier{}, fmt.Errorf("%w: disk latency %s out of range [%s, %s]", ErrSpec, d, time.Nanosecond, maxLatency)
	}
	t.latency = d
	return t, nil
}

// Build constructs one host's stack over replicas of objBytes each. Equal
// specs always build identically-behaving stacks.
func (sp Spec) Build(objBytes int64) *Stack {
	s := &Stack{objBytes: objBytes, capacity: sp.auth.cap, latency: sp.auth.latency}
	s.auth.Label = sp.auth.String()
	if sp.cached {
		s.lruCap = sp.front
		if s.lruCap == 0 {
			s.lruCap = defaultCacheCap
		}
		s.lru, s.resident = list.New(), make(map[object.ID]*list.Element)
		s.cache.Label, s.fast.Label = "cache", tier{cap: sp.front}.String()
	}
	return s
}
