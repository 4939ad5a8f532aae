//go:build !race

// The race detector multiplies simulation cost several-fold, and these
// Examples run at up to paper scale, so -race builds leave them out.

package radar_test

import (
	"fmt"
	"log"
	"strings"
	"time"

	"radar"
)

// Example_quickstart runs the paper's protocol under Zipf demand on the
// reconstructed UUNET backbone and prints the headline numbers. It is
// Table 1's configuration scaled down to 1,000 objects and five simulated
// minutes; drop the two overrides to run at paper scale.
func Example_quickstart() {
	cfg := radar.DefaultConfig(radar.Zipf)
	cfg.Objects = 1000
	cfg.Duration = 5 * time.Minute

	res, err := radar.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	s := res.Summary
	fmt.Printf("requests served:     %d\n", s.TotalServed)
	fmt.Printf("backbone traffic:    %.3g -> %.3g byte-hops/s\n", s.BandwidthInitial, s.BandwidthEquilibrium)
	fmt.Printf("average latency:     %.0f ms -> %.0f ms\n", s.LatencyInitial*1000, s.LatencyEquilibrium*1000)
	fmt.Printf("replicas per object: %.2f (started at 1.00)\n", s.AvgReplicas)
	fmt.Printf("protocol overhead:   %.2f%% of total traffic\n", s.OverheadPercent)
	fmt.Printf("placement activity:  %d migrations, %d replications, %d drops\n",
		s.GeoMigrations+s.LoadMigrations, s.GeoReplications+s.LoadReplications, s.Drops)
	// Output:
	// requests served:     635806
	// backbone traffic:    1.64e+08 -> 1.19e+08 byte-hops/s
	// average latency:     379 ms -> 296 ms
	// replicas per object: 1.91 (started at 1.00)
	// protocol overhead:   0.22% of total traffic
	// placement activity:  235 migrations, 914 replications, 235 drops
}

// Example_hotspotRelief is the paper's motivating scenario at paper scale
// (10,000 objects): 90% of demand hits pages hosted by about 10% of the
// sites, which are swamped far beyond their capacity. With placement
// frozen (static mirroring) the hottest server stays saturated; with the
// protocol, each host migrates and replicates from local knowledge alone
// until the hot spots dissolve. Forty simulated minutes keep the test
// short; by 55 the average reaches Table 2's published 2.62 replicas per
// object.
func Example_hotspotRelief() {
	dynamic := radar.DefaultConfig(radar.HotSites)
	dynamic.Duration = 40 * time.Minute
	static := dynamic
	static.Static = true
	static.Duration = 2 * time.Minute // saturation shows at once

	st, err := radar.Run(static)
	if err != nil {
		log.Fatal(err)
	}
	dyn, err := radar.Run(dynamic)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("static:  hottest server settles at %.0f req/s, %d requests abandoned\n",
		st.Summary.MaxLoadSettled, st.Summary.TimedOutRequests)
	fmt.Printf("dynamic: hottest server peaks at %.0f req/s, settles at %.0f req/s (high watermark 90)\n",
		dyn.Summary.MaxLoadPeak, dyn.Summary.MaxLoadSettled)
	fmt.Printf("dynamic: latency settles at %.0f ms, %.2f replicas per object\n",
		dyn.Summary.LatencyEquilibrium*1000, dyn.Summary.AvgReplicas)
	fmt.Println("hottest-server load, one sample per 5 simulated minutes:")
	for i := 0; i < len(dyn.MaxLoad); i += 15 {
		p := dyn.MaxLoad[i]
		fmt.Printf("%8v %6.1f req/s %s\n", p.T, p.V, strings.Repeat("#", int(p.V/5)))
	}
	// Output:
	// static:  hottest server settles at 200 req/s, 49039 requests abandoned
	// dynamic: hottest server peaks at 200 req/s, settles at 75 req/s (high watermark 90)
	// dynamic: latency settles at 187 ms, 2.55 replicas per object
	// hottest-server load, one sample per 5 simulated minutes:
	//      20s  199.6 req/s #######################################
	//    5m20s  200.0 req/s ########################################
	//   10m20s  200.0 req/s ########################################
	//   15m20s  200.0 req/s ########################################
	//   20m20s  200.0 req/s ########################################
	//   25m20s  125.2 req/s #########################
	//   30m20s   73.7 req/s ##############
	//   35m20s   73.5 req/s ##############
}

// Example_regionalCDN runs the regional workload (think localized news
// portals): each of four regions prefers its own 1% slice of the
// namespace. The protocol pulls each region's content into that region,
// collapsing transoceanic backbone traffic. The paper reports a 90.1%
// reduction at full scale; this run has 1,000 objects.
func Example_regionalCDN() {
	dynamic := radar.DefaultConfig(radar.Regional)
	dynamic.Objects = 1000
	dynamic.Duration = 10 * time.Minute
	static := dynamic
	static.Static = true
	static.Duration = time.Minute

	st, err := radar.Run(static)
	if err != nil {
		log.Fatal(err)
	}
	dyn, err := radar.Run(dynamic)
	if err != nil {
		log.Fatal(err)
	}
	s, d := st.Summary, dyn.Summary
	fmt.Printf("%-20s %10s %10s\n", "at equilibrium", "static", "dynamic")
	fmt.Printf("%-20s %10.3g %10.3g\n", "byte-hops/s", s.BandwidthEquilibrium, d.BandwidthEquilibrium)
	fmt.Printf("%-20s %8.0fms %8.0fms\n", "average latency", s.LatencyEquilibrium*1000, d.LatencyEquilibrium*1000)
	fmt.Printf("%-20s %10.2f %10.2f\n", "replicas per object", s.AvgReplicas, d.AvgReplicas)
	fmt.Printf("backbone traffic reduction: %.1f%%\n", 100*(s.BandwidthEquilibrium-d.BandwidthEquilibrium)/s.BandwidthEquilibrium)
	// Output:
	// at equilibrium           static    dynamic
	// byte-hops/s            1.35e+08   3.39e+07
	// average latency           322ms      155ms
	// replicas per object        1.00       2.27
	// backbone traffic reduction: 74.9%
}

// Example_flashCrowd tests responsiveness to a change of demand, the
// protocol's explicit design goal (§1.2). The run starts under calm Zipf
// demand; two minutes in, a flash crowd hits the pages of a few sites
// (hot-sites demand). The protocol notices, relocates objects en masse
// (the Theorem 1-4 load bounds make that safe) and restores normal
// service with no administrator in the loop. The run has 300 objects.
func Example_flashCrowd() {
	cfg := radar.DefaultConfig(radar.Zipf)
	cfg.Objects = 300
	cfg.Duration = 13 * time.Minute
	cfg.SwitchTo = radar.HotSites
	cfg.SwitchAt = 2 * time.Minute

	res, err := radar.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("calm Zipf demand until %v, then a flash crowd; average latency:\n", cfg.SwitchAt)
	for _, p := range res.Latency {
		fmt.Printf("%6v %6.0f ms\n", p.T, p.V*1000)
	}
	s := res.Summary
	fmt.Printf("%d migrations, %d replications (%d load-driven), %d drops\n",
		s.GeoMigrations+s.LoadMigrations, s.GeoReplications+s.LoadReplications, s.LoadReplications+s.LoadMigrations, s.Drops)
	fmt.Printf("%d of %d requests abandoned\n", s.TimedOutRequests, s.TotalServed+s.TimedOutRequests)
	// Output:
	// calm Zipf demand until 2m0s, then a flash crowd; average latency:
	//     0s    452 ms
	//   1m0s    539 ms
	//   2m0s   7321 ms
	//   3m0s  14086 ms
	//   4m0s  12711 ms
	//   5m0s  11736 ms
	//   6m0s  11319 ms
	//   7m0s  10333 ms
	//   8m0s   8015 ms
	//   9m0s   4317 ms
	//  10m0s   2730 ms
	//  11m0s   1157 ms
	//  12m0s    199 ms
	// 586 migrations, 1721 replications (36 load-driven), 586 drops
	// 20797 of 1653390 requests abandoned
}
