// End-to-end hot-path benchmarks: one full default-scale (Table 1)
// simulation per iteration, per workload. The zipf sub-benchmark is the
// run the benchmark ledger's sim-zipf workload stamps and bounds (see
// EXPERIMENTS.md, "Measuring"); run them with
//
//	go test -bench 'BenchmarkRun$' -benchmem
//
// Unlike the artifact benchmarks in bench_test.go, nothing is cached:
// every iteration pays the complete build-run-collect cost at full paper
// scale, so ns/op and allocs/op here reflect the library's real hot
// path.
package radar_test

import (
	"testing"

	"radar"
)

// BenchmarkRun measures one complete default-configuration run per
// workload (10,000 objects, 40 simulated minutes, Table 1 parameters).
func BenchmarkRun(b *testing.B) {
	for _, w := range []radar.Workload{radar.Zipf, radar.HotSites, radar.HotPages, radar.Regional, radar.Uniform} {
		w := w
		b.Run(string(w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := radar.Run(radar.DefaultConfig(w))
				if err != nil {
					b.Fatal(err)
				}
				if res.Summary.TotalServed == 0 {
					b.Fatal("no requests served")
				}
			}
		})
	}
}
