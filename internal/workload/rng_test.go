package workload

import (
	"slices"
	"testing"
)

// TestStreamsDisjoint: over a fleet of 4,095 nodes, no two reserved streams
// coincide — within a family or across families.
func TestStreamsDisjoint(t *testing.T) {
	const n = 4095
	type owned struct {
		s    uint64
		name string
	}
	all := []owned{
		{FaultStream, "fault"}, {ControlStream, "control"}, {ConsistencyStream, "consistency"},
		{HotSitesStream, "hot-sites"}, {HotPagesStream, "hot-pages"},
	}
	for i := 0; i < n; i++ {
		all = append(all, owned{GatewayStream(i), "gateway"}, owned{OracleStream(i), "oracle"},
			owned{TickerStream(i, 1), "measure ticker"}, owned{TickerStream(i, 2), "place ticker"},
			owned{RPCStream(i), "rpc"})
	}
	slices.SortFunc(all, func(a, b owned) int {
		switch {
		case a.s < b.s:
			return -1
		case a.s > b.s:
			return 1
		}
		return 0
	})
	for i := 1; i < len(all); i++ {
		if all[i].s == all[i-1].s {
			t.Fatalf("stream %#x reserved twice: %s and %s", all[i].s, all[i-1].name, all[i].name)
		}
	}
}

// TestStreamsPinned: the table names the values the runs were recorded
// with; moving one would move every golden that draws from it.
func TestStreamsPinned(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"fault", FaultStream, 1 << 32},
		{"control", ControlStream, 1 << 33},
		{"consistency", ConsistencyStream, 0xC0DE},
		{"hot-sites", HotSitesStream, 0x4053},
		{"hot-pages", HotPagesStream, 0x9a6e},
		{"gateway 52", GatewayStream(52), 52},
		{"measure ticker node 3", TickerStream(3, 1), 1<<34 | 1<<20 | 3},
		{"place ticker node 3", TickerStream(3, 2), 1<<34 | 2<<20 | 3},
		{"oracle gateway 52", OracleStream(52), 0x0AC1E<<8 | 52},
	} {
		if c.got != c.want {
			t.Errorf("%s stream = %#x, want %#x", c.name, c.got, c.want)
		}
	}
}
