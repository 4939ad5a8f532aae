package metrics

import (
	"time"
)

// SeriesStats summarizes a time series for reporting.
type SeriesStats struct {
	// Initial is the mean over the head window (the pre-adjustment level;
	// with the paper's round-robin initial placement this is the static
	// no-replication baseline level).
	Initial float64
	// Equilibrium is the mean over the tail window.
	Equilibrium float64
	// ReductionPercent is 100·(Initial-Equilibrium)/Initial.
	ReductionPercent float64
}

// mean returns the average of the points' values; 0 for an empty slice.
func mean(points []Point) float64 {
	if len(points) == 0 {
		return 0
	}
	total := 0.0
	for _, p := range points {
		total += p.V
	}
	return total / float64(len(points))
}

// headTail slices the first headN points and the final quarter of the
// series (at least one point each).
func headTail(points []Point, headN int) (head, tail []Point) {
	if len(points) == 0 {
		return nil, nil
	}
	if headN < 1 {
		headN = 1
	}
	if headN > len(points) {
		headN = len(points)
	}
	tailN := len(points) / 4
	if tailN < 1 {
		tailN = 1
	}
	return points[:headN], points[len(points)-tailN:]
}

// Summarize computes initial/equilibrium levels for a series, using the
// first headN buckets as the initial level and the final quarter as
// equilibrium.
func Summarize(points []Point, headN int) SeriesStats {
	head, tail := headTail(points, headN)
	s := SeriesStats{Initial: mean(head), Equilibrium: mean(tail)}
	if s.Initial != 0 {
		s.ReductionPercent = 100 * (s.Initial - s.Equilibrium) / s.Initial
	}
	return s
}

// AdjustmentTime computes Table 2's responsiveness metric: the time from
// which the series stays within thresholdFactor of the equilibrium level
// (the paper uses 1.10 — "10% above the average equilibrium bandwidth
// consumption"). Scanning for the *last* excursion above the threshold
// makes the metric robust to both monotone-decreasing series and the
// rise-then-fall shape of backlogged workloads. It returns false when the
// series is still above the threshold at its end (never settled).
func AdjustmentTime(points []Point, thresholdFactor float64) (time.Duration, bool) {
	if len(points) == 0 {
		return 0, false
	}
	_, tail := headTail(points, 1)
	eq := mean(tail)
	limit := eq * thresholdFactor
	last := -1
	for i, p := range points {
		if p.V > limit {
			last = i
		}
	}
	switch {
	case last == -1:
		return points[0].T, true // never exceeded: settled from the start
	case last == len(points)-1:
		return 0, false // still unsettled at the end of the run
	default:
		return points[last+1].T, true
	}
}

// MaxValue returns the maximum value of the series (0 for empty).
func MaxValue(points []Point) float64 {
	max := 0.0
	for _, p := range points {
		if p.V > max {
			max = p.V
		}
	}
	return max
}

// SandwichViolations counts Figure 8b samples where the actual load lies
// outside [lower-slack, upper+slack]. The paper's claim is zero.
func SandwichViolations(samples []HostLoadSample, slack float64) int {
	violations := 0
	for _, s := range samples {
		if s.Actual < s.Lower-slack || s.Actual > s.Upper+slack {
			violations++
		}
	}
	return violations
}
