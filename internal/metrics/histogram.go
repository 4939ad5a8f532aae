package metrics

import (
	"math"
	"math/bits"
	"time"
)

// latencyHist is a log-spaced latency histogram covering 100µs to ~1000s
// with constant relative resolution, used for per-bucket percentile
// estimates without storing individual samples.
type latencyHist struct {
	bins  [histBins]int64
	count int64
}

const (
	histBins = 96
	histMin  = 100e-6 // 100 µs
	histMax  = 1000.0 // 1000 s
)

var histLogRange = math.Log(histMax / histMin)

// binFor maps a latency in seconds to a bin index.
func binFor(seconds float64) int {
	if seconds <= histMin {
		return 0
	}
	if seconds >= histMax {
		return histBins - 1
	}
	idx := int(math.Log(seconds/histMin) / histLogRange * float64(histBins))
	if idx < 0 {
		idx = 0
	}
	if idx >= histBins {
		idx = histBins - 1
	}
	return idx
}

// binUpper returns a bin's upper edge in seconds (a conservative
// percentile estimate).
func binUpper(idx int) float64 {
	return histMin * math.Exp(float64(idx+1)/float64(histBins)*histLogRange)
}

// binCells bins a duration without a logarithm. A cell is picked by the
// nanosecond count's leading bit and the three bits after it, so it spans
// at most an eighth of an octave (0.118 nat), narrower than one bin
// (0.168 nat): it holds at most one bin edge, and the bin of any duration
// in it is its base plus one past that edge. The edges are binFor's own,
// so binOf(d) == binFor(d.Seconds()) for every d.
var binCells = buildBinCells()

type binCell struct {
	edge uint64 // the first nanosecond of bin base+1, or MaxUint64 when the cell holds no edge
	base int    // the bin of every duration in the cell below edge
}

// cellOf returns the table cell of a positive duration.
func cellOf(d time.Duration) int {
	p := bits.Len64(uint64(d)) - 1
	return p<<3 | int(uint64(d)<<(63-p)>>60&7)
}

// binOf is binFor(d.Seconds()) by one table load and one compare.
func binOf(d time.Duration) int {
	d = max(d, 1)
	c := &binCells[cellOf(d)&(len(binCells)-1)]
	if uint64(d) >= c.edge {
		return c.base + 1
	}
	return c.base
}

func buildBinCells() (cells [512]binCell) {
	for i := range cells {
		cells[i].edge = math.MaxUint64
	}
	for k := 1; k < histBins; k++ {
		// binUpper(k-1) is bin k's lower edge in seconds; walk from its
		// rounding to the first nanosecond binFor puts in bin k.
		d := time.Duration(binUpper(k-1) * 1e9)
		for binFor(d.Seconds()) >= k {
			d--
		}
		for binFor(d.Seconds()) < k {
			d++
		}
		c := &cells[cellOf(d)]
		if c.edge != math.MaxUint64 {
			panic("metrics: two latency-bin edges in one table cell")
		}
		c.edge = uint64(d)
	}
	base := 0
	for i := range cells {
		cells[i].base = base
		if cells[i].edge != math.MaxUint64 {
			base++
		}
	}
	return cells
}

// observe records one latency sample.
func (h *latencyHist) observe(d time.Duration) {
	h.bins[binOf(d)]++
	h.count++
}

// merge folds another histogram's counts into h. Counts are integers, so
// merging is order-independent.
func (h *latencyHist) merge(o *latencyHist) {
	if o.count == 0 {
		return
	}
	for i := range h.bins {
		h.bins[i] += o.bins[i]
	}
	h.count += o.count
}

// quantile returns an upper-edge estimate of the q-th quantile (0..1);
// zero when empty.
func (h *latencyHist) quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(math.Ceil(q * float64(h.count)))
	if target < 1 {
		target = 1
	}
	var seen int64
	for i := 0; i < histBins; i++ {
		seen += h.bins[i]
		if seen >= target {
			return binUpper(i)
		}
	}
	return binUpper(histBins - 1)
}
