package live

import (
	"reflect"
	"strings"
	"testing"

	"radar/internal/scenario"
	"radar/internal/topology"
	"radar/internal/workload"
)

// TestScenarioConfigOverridesTheSpec: the command-line overrides land on
// the scenario's Spec before it is built, so an overridden seed seeds the
// generators as well as the run. diurnal-lossy-ctrl switches to hot-pages,
// whose hot set is drawn from the seed. Its lossy control plane is refused
// over a fleet, so ScenarioConfig answers that refusal beside the
// configuration it built.
func TestScenarioConfigOverridesTheSpec(t *testing.T) {
	const name, dsl = "diurnal-lossy-ctrl", "seed:1"
	got, err := ScenarioConfig(name, 0, 0, 7, false)
	if err == nil || !strings.Contains(err.Error(), "fault injection is simulation-only") {
		t.Fatalf("ScenarioConfig(%s) error = %v, want the fault-injection refusal", name, err)
	}
	sc, _ := scenario.ByName(name)
	if !strings.Contains(sc.DSL, dsl) {
		t.Fatalf("%s's DSL %q no longer spells %q", name, sc.DSL, dsl)
	}
	sp, err := scenario.ParseSpec(strings.Replace(sc.DSL, dsl, "seed:7", 1))
	if err != nil {
		t.Fatal(err)
	}
	want, err := sp.Config()
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []struct {
		name string
		a, b workload.Generator
	}{
		{"Workload", got.Sim.Workload, want.Workload},
		{"WorkloadSwitch.To", got.Sim.WorkloadSwitch.To, want.WorkloadSwitch.To},
	} {
		if g.a.Name() != g.b.Name() {
			t.Fatalf("%s = %s, want %s", g.name, g.a.Name(), g.b.Name())
		}
		ra, rb := workload.Stream(1, 0), workload.Stream(1, 0)
		for i := 0; i < 10_000; i++ {
			gw := topology.NodeID(i % 53)
			if a, b := g.a.Next(gw, ra), g.b.Next(gw, rb); a != b {
				t.Fatalf("%s draw %d = object %d, want %d", g.name, i, a, b)
			}
		}
	}
	got.Sim.Workload, got.Sim.WorkloadSwitch.To = nil, nil
	want.Workload, want.WorkloadSwitch.To = nil, nil
	if !reflect.DeepEqual(got.Sim, want) {
		t.Errorf("ScenarioConfig(seed 7).Sim = %+v\nwant %+v", got.Sim, want)
	}
}
