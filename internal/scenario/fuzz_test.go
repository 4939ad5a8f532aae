package scenario

import (
	"testing"

	"radar/internal/protocol"
)

// FuzzScenarioSpec drives the scenario DSL parser with arbitrary input:
// parsing must never panic, and any composition that parses must be
// internally coherent — defaults filled, values inside their documented
// ranges, and the fault sub-schedule accepted by its own validator.
// (Config building is deliberately not fuzzed: it allocates universes.)
func FuzzScenarioSpec(f *testing.F) {
	for _, sc := range Corpus() {
		f.Add(sc.DSL)
	}
	for _, seed := range []string{
		"",
		"workload:zipf",
		"workload:uniform; highload",
		"workload:zipf; switch:hot-pages@6m; faults:drop:0.2|dup:0.05",
		"workload:zipf; workload:zipf",
		"workload:zipf; objects:-1",
		"workload:zipf; avail:1.5",
		"workload:zipf; faults:crash:9@4m+3m|link:12-13@4m",
		"workload:zipf; faults:drop:0.2|drop:0.9",
		"WORKLOAD:zipf; HIGHLOAD",
		"workload:zipf;;;; duration:9m",
		"workload:zipf; seed:9223372036854775807",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sp, err := ParseSpec(s)
		if err != nil {
			return // rejected composition is fine; it just must not panic
		}
		if !knownWorkload(sp.Workload) {
			t.Fatalf("parsed unknown workload %q from %q", sp.Workload, s)
		}
		if sp.SwitchTo != "" && (!knownWorkload(sp.SwitchTo) || sp.SwitchAt <= 0 || sp.SwitchAt >= sp.Duration) {
			t.Fatalf("parsed incoherent switch %q@%v from %q", sp.SwitchTo, sp.SwitchAt, s)
		}
		if sp.Objects < 1 || sp.Objects > maxObjects {
			t.Fatalf("parsed object count %d out of range from %q", sp.Objects, s)
		}
		if sp.Duration <= 0 || sp.Duration > maxDuration {
			t.Fatalf("parsed duration %v out of range from %q", sp.Duration, s)
		}
		if sp.RPS <= 0 || sp.RPS > maxRPS || sp.RPS != sp.RPS {
			t.Fatalf("parsed rps %v out of range from %q", sp.RPS, s)
		}
		if sp.Seed < 0 {
			t.Fatalf("parsed negative seed %d from %q", sp.Seed, s)
		}
		if sp.Floor < 0 || sp.Floor > maxFloor {
			t.Fatalf("parsed floor %d out of range from %q", sp.Floor, s)
		}
		if sp.Avail < 0 || sp.Avail > 1 || sp.Avail != sp.Avail {
			t.Fatalf("parsed availability weight %v out of range from %q", sp.Avail, s)
		}
		if sp.Redirectors < 1 || sp.Redirectors > maxRedirectors {
			t.Fatalf("parsed redirector count %d out of range from %q", sp.Redirectors, s)
		}
		if _, err := protocol.ParsePolicy(sp.Policy.String()); err != nil {
			t.Fatalf("parsed unknown policy %v from %q", sp.Policy, s)
		}
		// Message-fault terms must be in range (the fault parser's own
		// contract, re-checked across the "|" rewriting).
		if sp.Faults.MsgDrop < 0 || sp.Faults.MsgDrop > 1 || sp.Faults.MsgDup < 0 || sp.Faults.MsgDup > 1 || sp.Faults.MsgDelay < 0 {
			t.Fatalf("parsed out-of-range message faults %+v from %q", sp.Faults, s)
		}
	})
}
