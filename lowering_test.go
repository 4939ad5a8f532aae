package radar

import (
	"io"
	"reflect"
	"testing"
	"time"

	"radar/internal/consistency"
	"radar/internal/fault"
	"radar/internal/object"
	"radar/internal/protocol"
	"radar/internal/scenario"
	"radar/internal/sim"
	"radar/internal/store"
	"radar/internal/substrate"
	"radar/internal/topology"
	"radar/internal/trace"
	"radar/internal/workload"
)

// referenceSimConfig is the facade's translation as it stood before the
// facade lowered to a scenario.Spec: its own workload.Named and
// sim.DefaultConfig, field by field. It is the oracle for build.
func referenceSimConfig(cfg Config, faults fault.Spec, stack store.Spec) (*sim.Config, error) {
	topo := substrate.UUNET().Topo
	u := object.Universe{Count: cfg.Objects, SizeBytes: 12 << 10}
	gen, err := workload.Named(string(cfg.Workload), u, topo, cfg.Seed)
	if err != nil {
		return nil, err
	}
	simCfg := sim.DefaultConfig(gen, cfg.Seed)
	simCfg.Topo = topo
	simCfg.Universe = u
	if cfg.Duration > 0 {
		simCfg.Duration = cfg.Duration
	}
	if cfg.HighLoad {
		simCfg.Protocol = protocol.HighLoadParams()
	}
	simCfg.DynamicPlacement = !cfg.Static
	switch cfg.Placement.Policy {
	case PolicyRoundRobin:
		simCfg.Policy = protocol.PolicyRoundRobin
	case PolicyClosest:
		simCfg.Policy = protocol.PolicyClosest
	}
	if cfg.Consistency == ConsistencyMixed {
		simCfg.Consistency = consistency.DefaultMix()
	}
	if cfg.NumRedirectors > 0 {
		simCfg.NumRedirectors = cfg.NumRedirectors
	}
	simCfg.PoissonArrivals = cfg.PoissonArrivals
	simCfg.Net.Contention = cfg.LinkContention
	if cfg.SwitchTo != "" {
		to, err := workload.Named(string(cfg.SwitchTo), u, topo, cfg.Seed+1)
		if err != nil {
			return nil, err
		}
		simCfg.WorkloadSwitch.At = cfg.SwitchAt
		simCfg.WorkloadSwitch.To = to
	}
	if cfg.TraceWriter != nil {
		simCfg.ExtraObserver = trace.NewWriter(cfg.TraceWriter)
	}
	simCfg.Faults = faults
	simCfg.Protocol.ReplicaFloor = cfg.Faults.ReplicaFloor
	simCfg.Protocol.AvailabilityWeight = cfg.Placement.AvailabilityWeight
	simCfg.Ctrl.Retries = cfg.Ctrl.CtrlRetries
	simCfg.Ctrl.Timeout = cfg.Ctrl.CtrlTimeout
	simCfg.Store = stack
	return &simCfg, nil
}

// sameDraws reports whether a and b are one workload: the same name and
// the same first 10,000 objects drawn, gateway by gateway, from equal
// streams.
func sameDraws(a, b workload.Generator) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	if a.Name() != b.Name() {
		return false
	}
	n := substrate.UUNET().Topo.NumNodes()
	ra, rb := workload.Stream(1, 0), workload.Stream(1, 0)
	for i := 0; i < 10_000; i++ {
		g := topology.NodeID(i % n)
		if a.Next(g, ra) != b.Next(g, rb) {
			return false
		}
	}
	return true
}

// diffConfigs reports every field in which got differs from want. The
// generators are compared by their draws and the trace recorders, which
// are closures, by their type; Topo is normalized, because build leaves it
// nil for sim.New to resolve to the UUNET backbone the reference names.
func diffConfigs(t *testing.T, got, want sim.Config) {
	t.Helper()
	if !sameDraws(got.Workload, want.Workload) {
		t.Error("Workload draws differ")
	}
	if !sameDraws(got.WorkloadSwitch.To, want.WorkloadSwitch.To) {
		t.Error("WorkloadSwitch.To draws differ")
	}
	if g, w := reflect.TypeOf(got.ExtraObserver), reflect.TypeOf(want.ExtraObserver); g != w {
		t.Errorf("ExtraObserver is a %v, want a %v", g, w)
	}
	if got.Topo != nil {
		t.Errorf("Topo = %p, want nil (the UUNET backbone)", got.Topo)
	}
	got.Workload, got.WorkloadSwitch.To, got.ExtraObserver, got.Topo = nil, nil, nil, nil
	want.Workload, want.WorkloadSwitch.To, want.ExtraObserver, want.Topo = nil, nil, nil, nil
	gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < gv.NumField(); i++ {
		if !gv.Type().Field(i).IsExported() {
			continue // package sim's own test hooks: no facade value reaches them
		}
		if g, w := gv.Field(i).Interface(), wv.Field(i).Interface(); !reflect.DeepEqual(g, w) {
			t.Errorf("%s = %+v, want %+v", gv.Type().Field(i).Name, g, w)
		}
	}
}

// TestLoweringMatchesReference: for a table of facade configurations that
// flips every field, build assembles the configuration the old translation
// did, field by field. The one intended difference is the switch target's
// seed, which is Seed, as in every scenario, not Seed+1.
func TestLoweringMatchesReference(t *testing.T) {
	rows := map[string]func(*Config){
		"defaults":            func(*Config) {},
		"seed":                func(c *Config) { c.Seed = 9 },
		"hot-sites":           func(c *Config) { c.Workload = HotSites },
		"hot-pages":           func(c *Config) { c.Workload = HotPages },
		"regional":            func(c *Config) { c.Workload = Regional },
		"uniform":             func(c *Config) { c.Workload = Uniform },
		"zero duration":       func(c *Config) { c.Duration = 0 },
		"static":              func(c *Config) { c.Static = true },
		"high load":           func(c *Config) { c.HighLoad = true },
		"policy unset":        func(c *Config) { c.Placement.Policy = "" },
		"policy round-robin":  func(c *Config) { c.Placement.Policy = PolicyRoundRobin },
		"policy closest":      func(c *Config) { c.Placement.Policy = PolicyClosest },
		"mixed consistency":   func(c *Config) { c.Consistency = ConsistencyMixed },
		"no consistency":      func(c *Config) { c.Consistency = "" },
		"redirectors":         func(c *Config) { c.NumRedirectors = 4 },
		"zero redirectors":    func(c *Config) { c.NumRedirectors = 0 },
		"poisson":             func(c *Config) { c.PoissonArrivals = true },
		"contention":          func(c *Config) { c.LinkContention = true },
		"floor":               func(c *Config) { c.Faults.ReplicaFloor = 2 },
		"availability weight": func(c *Config) { c.Placement.AvailabilityWeight = 0.5 },
		"ctrl":                func(c *Config) { c.Ctrl = Ctrl{CtrlRetries: 2, CtrlTimeout: 500 * time.Millisecond} },
		"store":               func(c *Config) { c.Storage.Store = "cache(mem:64,disk:5ms)" },
		"faults":              func(c *Config) { c.Faults.FaultSchedule = "crash:9@3m+5m; link:12-13@4m; drop:0.2" },
		"trace writer":        func(c *Config) { c.TraceWriter = io.Discard },
		"switch":              func(c *Config) { c.SwitchTo, c.SwitchAt = HotPages, 2*time.Minute },
	}
	for name, mutate := range rows {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig(Zipf)
			cfg.Objects, cfg.Duration = 500, 4*time.Minute
			mutate(&cfg)
			got, err := cfg.build()
			if err != nil {
				t.Fatal(err)
			}
			faults, err := fault.ParseSchedule(cfg.Faults.FaultSchedule)
			if err != nil {
				t.Fatal(err)
			}
			stack, err := store.ParseSpec(cfg.Storage.Store)
			if err != nil {
				t.Fatal(err)
			}
			want, err := referenceSimConfig(cfg, faults, stack)
			if err != nil {
				t.Fatal(err)
			}
			if cfg.SwitchTo != "" {
				u := object.Universe{Count: cfg.Objects, SizeBytes: 12 << 10}
				seeded, err := workload.Named(string(cfg.SwitchTo), u, substrate.UUNET().Topo, cfg.Seed)
				if err != nil {
					t.Fatal(err)
				}
				if sameDraws(seeded, want.WorkloadSwitch.To) {
					t.Fatal("Seed and Seed+1 draw alike; the row cannot tell the seed rule")
				}
				want.WorkloadSwitch.To = seeded
			}
			diffConfigs(t, *got, *want)
		})
	}
}

// TestFacadeSpellsScenarios: a facade Config spelling a corpus scenario
// builds the scenario's own configuration.
func TestFacadeSpellsScenarios(t *testing.T) {
	spell := func(w Workload, d time.Duration, mutate func(*Config)) Config {
		c := DefaultConfig(w)
		c.Objects, c.Duration = 2000, d
		mutate(&c)
		return c
	}
	for name, cfg := range map[string]Config{
		"steady-state-baseline": spell(Zipf, 8*time.Minute, func(*Config) {}),
		"diurnal-lossy-ctrl": spell(Zipf, 12*time.Minute, func(c *Config) {
			c.SwitchTo, c.SwitchAt = HotPages, 6*time.Minute
			c.Faults = Faults{ReplicaFloor: 2, FaultSchedule: "drop:0.2; dup:0.05; cdelay:20ms"}
			c.Placement.AvailabilityWeight = 0.5
		}),
		"cache-over-disk-tier": spell(Zipf, 8*time.Minute, func(c *Config) {
			c.Storage.Store = "cache(mem:64,disk:5ms)"
		}),
		"correlated-rack-failures": spell(Uniform, 10*time.Minute, func(c *Config) {
			c.Faults = Faults{ReplicaFloor: 2, FaultSchedule: "crash:9@4m+3m; crash:10@4m+3m; crash:11@4m+3m"}
			c.Placement.AvailabilityWeight = 0.6
		}),
	} {
		t.Run(name, func(t *testing.T) {
			sc, ok := scenario.ByName(name)
			if !ok {
				t.Fatalf("no scenario %s", name)
			}
			want, err := sc.Config()
			if err != nil {
				t.Fatal(err)
			}
			got, err := cfg.build()
			if err != nil {
				t.Fatal(err)
			}
			diffConfigs(t, *got, want)
		})
	}
}
