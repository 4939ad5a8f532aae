package scenario

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"radar/internal/consistency"
	"radar/internal/ctrlplane"
	"radar/internal/fault"
	"radar/internal/protocol"
	"radar/internal/store"
	"radar/internal/workload"
)

// Spec is a parsed scenario composition. The zero value is not runnable;
// build Specs with ParseSpec, which fills the documented defaults. The
// defaults below are ParseSpec's; Spec.Config reads a zero Duration, RPS
// or Redirectors as Table 1's value.
type Spec struct {
	// Workload names the demand generator (required): uniform, zipf,
	// hot-sites, hot-pages, regional, or flash-crowd.
	Workload string
	// SwitchTo / SwitchAt, when SwitchTo is non-empty, swap the demand
	// generator mid-run (the diurnal pattern change of §1). The new
	// generator is seeded with Seed, like the first.
	SwitchTo string
	SwitchAt time.Duration
	// Objects is the universe size (default 2000, the Quick scale).
	Objects int
	// Duration is the simulated span (default 8m).
	Duration time.Duration
	// RPS is each gateway's request rate (default 40, Table 1).
	RPS float64
	// Seed drives all randomness (default 1).
	Seed int64
	// Floor is Params.ReplicaFloor (default 0: the paper's behavior).
	Floor int
	// Avail is Params.AvailabilityWeight (default 0: legacy ordering).
	Avail float64
	// Redirectors hash-partitions the URL namespace (default 1).
	Redirectors int
	// Policy is the request distribution algorithm (default paper).
	Policy protocol.Policy
	// HighLoad selects the Figure 9 watermarks (50/40) over Table 1's.
	HighLoad bool
	// Static freezes the initial placement (the no-replication baseline).
	Static bool
	// Consistency is the §5 category mix; the zero value gates nothing.
	Consistency consistency.Mix
	// Poisson draws gateway arrivals from a Poisson process instead of
	// the paper's constant spacing.
	Poisson bool
	// Contention serializes transfers on each directed link.
	Contention bool
	// Ctrl tunes the lossy control plane; zero fields take its defaults.
	Ctrl ctrlplane.Params
	// Faults is the parsed fault schedule.
	Faults fault.Spec
	// Store is the parsed replica-storage stack. The zero value is the
	// default memory stack.
	Store store.Spec
}

// Scenario DSL limits: a composition is a simulation recipe, not a place
// to smuggle in unbounded allocations.
const (
	maxObjects     = 1_000_000
	maxDuration    = 24 * time.Hour
	maxRPS         = 1e6
	maxFloor       = 16
	maxRedirectors = 64
)

// flashCrowd names the one workload the scenario corpus adds to
// workload.Named's.
const flashCrowd = "flash-crowd"

func knownWorkload(s string) bool { return s == flashCrowd || slices.Contains(workload.Names, s) }

// ParseSpec parses the scenario DSL: a semicolon-separated list of
// key:value clauses composing workload, faults, control-plane loss and
// policy parameters into one runnable scenario.
//
//	workload:NAME       demand generator (required): uniform, zipf,
//	                    hot-sites, hot-pages, regional, flash-crowd
//	switch:NAME@TIME    swap the demand generator at TIME
//	objects:N           universe size (default 2000)
//	duration:D          simulated span (default 8m)
//	rps:F               per-gateway request rate (default 40)
//	seed:N              PRNG seed (default 1)
//	floor:N             replica floor (default 0)
//	avail:F             availability weight in [0,1] (default 0)
//	redirectors:N       hash-partitioned redirectors (default 1)
//	policy:NAME         paper (default), round-robin, closest
//	highload            Figure 9 watermarks (bare clause, no value)
//	faults:SCHEDULE     fault sub-schedule in the -faults DSL with "|"
//	                    standing in for ";" (e.g. crash:9@4m+3m|drop:0.2)
//	store:SPEC          replica-storage stack in the -store DSL, one
//	                    level deep (mem, disk:2ms, cache(mem:64,disk:5ms))
//
// Durations use Go syntax. Unknown keys, duplicate keys, malformed values
// and a missing workload are errors — a scenario either parses into
// exactly what was written or is rejected.
func ParseSpec(s string) (Spec, error) {
	sp := Spec{
		Objects:     2000,
		Duration:    8 * time.Minute,
		RPS:         40,
		Seed:        1,
		Redirectors: 1,
		Policy:      protocol.PolicyPaper,
	}
	seen := make(map[string]bool, 8)
	for _, clause := range strings.Split(s, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		key, rest, hasValue := strings.Cut(clause, ":")
		key = strings.ToLower(strings.TrimSpace(key))
		if seen[key] {
			return Spec{}, fmt.Errorf("scenario: duplicate clause %q", key)
		}
		seen[key] = true
		if !hasValue {
			if key == "highload" {
				sp.HighLoad = true
				continue
			}
			return Spec{}, fmt.Errorf("scenario: clause %q needs a key: prefix", clause)
		}
		rest = strings.TrimSpace(rest)
		var err error
		switch key {
		case "workload":
			sp.Workload, err = parseWorkloadName(rest)
		case "switch":
			sp.SwitchTo, sp.SwitchAt, err = parseSwitch(rest)
		case "objects":
			sp.Objects, err = parseIntRange(rest, 1, maxObjects)
		case "duration":
			sp.Duration, err = parseDurationRange(rest, maxDuration)
		case "rps":
			sp.RPS, err = parsePositiveFloat(rest, maxRPS)
		case "seed":
			sp.Seed, err = strconv.ParseInt(rest, 10, 64)
			if err == nil && sp.Seed < 0 {
				err = fmt.Errorf("seed %d must be non-negative", sp.Seed)
			}
		case "floor":
			sp.Floor, err = parseIntRange(rest, 0, maxFloor)
		case "avail":
			sp.Avail, err = strconv.ParseFloat(rest, 64)
			if err == nil && (sp.Avail < 0 || sp.Avail > 1 || sp.Avail != sp.Avail) {
				err = fmt.Errorf("availability weight %v must be in [0,1]", sp.Avail)
			}
		case "redirectors":
			sp.Redirectors, err = parseIntRange(rest, 1, maxRedirectors)
		case "policy":
			sp.Policy, err = protocol.ParsePolicy(rest)
		case "highload":
			err = fmt.Errorf("highload is a bare clause and takes no value")
		case "faults":
			sp.Faults, err = fault.ParseSchedule(strings.ReplaceAll(rest, "|", ";"))
		case "store":
			sp.Store, err = store.ParseSpec(rest)
		default:
			return Spec{}, fmt.Errorf("scenario: unknown clause %q", key)
		}
		if err != nil {
			return Spec{}, fmt.Errorf("scenario: clause %q: %w", clause, err)
		}
	}
	if sp.Workload == "" {
		return Spec{}, fmt.Errorf("scenario: composition needs a workload: clause")
	}
	if sp.SwitchTo != "" && sp.SwitchAt >= sp.Duration {
		return Spec{}, fmt.Errorf("scenario: switch time %v not before the %v horizon", sp.SwitchAt, sp.Duration)
	}
	return sp, nil
}

func parseWorkloadName(s string) (string, error) {
	if !knownWorkload(s) {
		return "", fmt.Errorf("unknown workload %q", s)
	}
	return s, nil
}

// parseSwitch parses "NAME@TIME".
func parseSwitch(s string) (string, time.Duration, error) {
	name, when, ok := strings.Cut(s, "@")
	if !ok {
		return "", 0, fmt.Errorf("switch needs NAME@TIME")
	}
	name = strings.TrimSpace(name)
	if _, err := parseWorkloadName(name); err != nil {
		return "", 0, err
	}
	at, err := time.ParseDuration(strings.TrimSpace(when))
	if err != nil {
		return "", 0, fmt.Errorf("bad switch time: %w", err)
	}
	if at <= 0 {
		return "", 0, fmt.Errorf("switch time %v must be positive", at)
	}
	return name, at, nil
}

func parseIntRange(s string, lo, hi int) (int, error) {
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, err
	}
	if v < lo || v > hi {
		return 0, fmt.Errorf("value %d outside [%d, %d]", v, lo, hi)
	}
	return v, nil
}

func parseDurationRange(s string, maxD time.Duration) (time.Duration, error) {
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, err
	}
	if d <= 0 || d > maxD {
		return 0, fmt.Errorf("duration %v outside (0, %v]", d, maxD)
	}
	return d, nil
}

func parsePositiveFloat(s string, maxV float64) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if v <= 0 || v > maxV || v != v {
		return 0, fmt.Errorf("value %v outside (0, %v]", v, maxV)
	}
	return v, nil
}
