package workload

import "math/rand"

// splitmix64 advances and hashes a 64-bit state. It is the standard seed
// expander for deriving statistically independent streams from one master
// seed, so every simulation component gets its own deterministic PRNG.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Stream returns a deterministic PRNG for the given (master seed, stream)
// pair. Distinct streams are independent; the same pair always yields the
// same sequence, which keeps whole simulation runs reproducible.
func Stream(master int64, stream uint64) *rand.Rand {
	mixed := splitmix64(splitmix64(uint64(master)) ^ splitmix64(stream+0x5851f42d4c957f2d))
	return rand.New(rand.NewSource(int64(mixed)))
}

// The reserved streams of one seed. Every draw of a run, simulated or live,
// comes from Stream(seed, s) for an s named here, so switching a subsystem
// on never shifts another's draws. The ranges are disjoint for fleets of up
// to 4,095 nodes (TestStreamsDisjoint).
const (
	// FaultStream draws host and link fault timelines: the simulator's and
	// the live chaos plan's, so one schedule means one timeline in both.
	FaultStream uint64 = 1 << 32
	// ControlStream draws the simulated control plane's message faults and
	// retry jitter.
	ControlStream uint64 = 1 << 33
	// ConsistencyStream draws the §5 category table.
	ConsistencyStream uint64 = 0xC0DE
	// HotSitesStream picks the hot sites, HotPagesStream the hot pages.
	HotSitesStream uint64 = 0x4053
	HotPagesStream uint64 = 0x9a6e
)

// GatewayStream draws the requests entering at gateway g.
func GatewayStream(g int) uint64 { return uint64(g) }

// TickerStream draws the jitter of a live node's self-scheduled ticker:
// 1 measurement, 2 placement.
func TickerStream(node int, ticker uint64) uint64 { return 1<<34 | ticker<<20 | uint64(node) }

// RPCStream draws a live node's RPC retry jitter.
func RPCStream(node int) uint64 { return 1<<35 | uint64(node) }

// OracleStream draws the oracle's demand samples at gateway g.
func OracleStream(g int) uint64 { return 0xAC1E<<8 + uint64(g) }
