//go:build race

package experiments

// raceEnabled reports whether the race detector is compiled in; heavy
// integration tests shrink their simulation scale under -race (see
// tinyOptions) because the detector multiplies simulation cost several-fold.
const raceEnabled = true
