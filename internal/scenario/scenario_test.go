package scenario

import (
	"strings"
	"testing"
	"time"

	"radar/internal/fault"
	"radar/internal/protocol"
)

func TestParseSpecDefaults(t *testing.T) {
	sp, err := ParseSpec("workload:zipf")
	if err != nil {
		t.Fatal(err)
	}
	if sp.Workload != "zipf" || sp.Objects != 2000 || sp.Duration != 8*time.Minute ||
		sp.RPS != 40 || sp.Seed != 1 || sp.Redirectors != 1 || sp.Policy != protocol.PolicyPaper ||
		sp.Floor != 0 || sp.Avail != 0 || sp.HighLoad || sp.SwitchTo != "" ||
		sp.Faults.Enabled() {
		t.Errorf("ParseSpec defaults = %+v", sp)
	}
}

func TestParseSpecFullComposition(t *testing.T) {
	sp, err := ParseSpec("workload:flash-crowd; switch:hot-pages@6m; objects:500; duration:12m; " +
		"rps:25.5; seed:7; floor:2; avail:0.5; redirectors:4; policy:closest; highload; " +
		"faults:crash:9@4m+3m|drop:0.2")
	if err != nil {
		t.Fatal(err)
	}
	if sp.Workload != "flash-crowd" || sp.SwitchTo != "hot-pages" || sp.SwitchAt != 6*time.Minute {
		t.Errorf("workload/switch = %q/%q@%v", sp.Workload, sp.SwitchTo, sp.SwitchAt)
	}
	if sp.Objects != 500 || sp.Duration != 12*time.Minute || sp.RPS != 25.5 || sp.Seed != 7 {
		t.Errorf("scale = %d obj, %v, %v rps, seed %d", sp.Objects, sp.Duration, sp.RPS, sp.Seed)
	}
	if sp.Floor != 2 || sp.Avail != 0.5 || sp.Redirectors != 4 || sp.Policy != protocol.PolicyClosest || !sp.HighLoad {
		t.Errorf("policy knobs = floor %d avail %v redirectors %d policy %v highload %v",
			sp.Floor, sp.Avail, sp.Redirectors, sp.Policy, sp.HighLoad)
	}
	if len(sp.Faults.Events) != 2 || sp.Faults.MsgDrop != 0.2 {
		t.Errorf("faults = %+v", sp.Faults)
	}
	if sp.Faults.Events[0].Kind != fault.HostDown {
		t.Errorf("first fault event = %+v, want a host crash", sp.Faults.Events[0])
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, bad := range []string{
		"",                                        // no workload
		"objects:500",                             // no workload
		"workload:bogus",                          // unknown workload
		"workload:zipf; workload:uniform",         // duplicate key
		"workload:zipf; highload; highload",       // duplicate bare clause
		"workload:zipf; highload:1",               // highload takes no value
		"workload:zipf; bogus:1",                  // unknown key
		"workload:zipf; objects:0",                // out of range
		"workload:zipf; objects:9999999",          // above cap
		"workload:zipf; objects:-5",               // negative
		"workload:zipf; duration:0s",              // zero duration
		"workload:zipf; duration:48h",             // above cap
		"workload:zipf; rps:0",                    // zero rate
		"workload:zipf; rps:NaN",                  // NaN
		"workload:zipf; seed:-1",                  // negative seed
		"workload:zipf; floor:-1",                 // negative floor
		"workload:zipf; floor:99",                 // above cap
		"workload:zipf; avail:1.5",                // weight above 1
		"workload:zipf; avail:-0.1",               // negative weight
		"workload:zipf; avail:NaN",                // NaN weight
		"workload:zipf; redirectors:0",            // below 1
		"workload:zipf; policy:best",              // unknown policy
		"workload:zipf; switch:hot-pages",         // switch without time
		"workload:zipf; switch:bogus@5m",          // unknown switch target
		"workload:zipf; switch:uniform@0s",        // non-positive switch time
		"workload:zipf; switch:uniform@10m",       // switch at/after the 8m horizon
		"workload:zipf; faults:crash:7",           // malformed fault sub-schedule
		"workload:zipf; faults:drop:2",            // fault value out of range
		"workload:zipf; faults:drop:0.2|drop:0.3", // duplicate fault key
		"workload:zipf; store:cache(mem)",         // malformed store term
		"workload:zipf; store:mirror(mem,mem)",    // removed store backend
		"workload:zipf; store:faulty(mem)",        // removed store backend
		"workload",                                // bare non-highload clause
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) succeeded, want error", bad)
		}
	}
}

func TestCorpusScenariosBuild(t *testing.T) {
	corpus := Corpus()
	if len(corpus) < 4 {
		t.Fatalf("corpus has %d scenarios, want >= 4", len(corpus))
	}
	seen := map[string]bool{}
	for _, sc := range corpus {
		if sc.Name == "" || sc.Version < 1 || sc.Description == "" {
			t.Errorf("scenario %+v missing name, version or description", sc)
		}
		if seen[sc.Name] {
			t.Errorf("duplicate scenario name %q", sc.Name)
		}
		seen[sc.Name] = true
		cfg, err := sc.Config()
		if err != nil {
			t.Errorf("scenario %s does not build: %v", sc.Name, err)
			continue
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("scenario %s config invalid: %v", sc.Name, err)
		}
	}
	if _, ok := ByName("steady-state-baseline"); !ok {
		t.Error("ByName(steady-state-baseline) not found")
	}
	if _, ok := ByName("no-such-scenario"); ok {
		t.Error("ByName(no-such-scenario) unexpectedly found")
	}
	if names := Names(); len(names) != len(corpus) {
		t.Errorf("Names() returned %d names for %d scenarios", len(names), len(corpus))
	}
}

// The baseline scenario must not arm any extension path: its config is the
// zero-knob/zero-fault composition that pins bit-identity with the paper.
func TestBaselineScenarioArmsNothing(t *testing.T) {
	sc, ok := ByName("steady-state-baseline")
	if !ok {
		t.Fatal("no steady-state-baseline in corpus")
	}
	cfg, err := sc.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Faults.Enabled() || cfg.Faults.HasMessageFaults() {
		t.Errorf("baseline arms faults: %+v", cfg.Faults)
	}
	if cfg.Protocol.ReplicaFloor != 0 || cfg.Protocol.AvailabilityWeight != 0 {
		t.Errorf("baseline sets floor %d / avail %v, want 0/0",
			cfg.Protocol.ReplicaFloor, cfg.Protocol.AvailabilityWeight)
	}
	if cfg.Policy != protocol.PolicyPaper {
		t.Errorf("baseline policy = %v, want paper", cfg.Policy)
	}
}

// Spec.Config on a hand-built (non-parsed) spec without a workload fails
// cleanly rather than panicking downstream.
func TestSpecConfigRequiresWorkload(t *testing.T) {
	var sp Spec
	if _, err := sp.Config(); err == nil || !strings.Contains(err.Error(), "workload") {
		t.Errorf("zero Spec.Config() error = %v, want workload complaint", err)
	}
}

// A hand-built Spec runs the policy it names or none: an unknown policy
// (the zero value included) is refused, never quietly run as Fig. 2.
func TestSpecConfigRefusesUnknownPolicy(t *testing.T) {
	sp, err := ParseSpec("workload:uniform; objects:100; policy:round-robin")
	if err != nil {
		t.Fatal(err)
	}
	if cfg, err := sp.Config(); err != nil || cfg.Policy != protocol.PolicyRoundRobin {
		t.Fatalf("round-robin spec built policy %v, err %v", cfg.Policy, err)
	}
	for _, p := range []protocol.Policy{0, protocol.PolicyClosest + 1} {
		sp.Policy = p
		if cfg, err := sp.Config(); err == nil || !strings.Contains(err.Error(), "unknown policy") {
			t.Errorf("Spec{Policy: %v}.Config() = policy %v, err %v; want an unknown-policy error", p, cfg.Policy, err)
		}
	}
}
