// Package stats provides the summary statistics used to aggregate
// multi-seed experiment runs: sample mean, standard deviation and
// normal-approximation confidence intervals. Single-seed
// simulation results carry run-to-run noise; reporting mean ± interval
// across seeds is what makes paper-vs-measured comparisons defensible.
package stats

import (
	"fmt"
	"math"
)

// Mean returns the arithmetic mean; 0 for an empty sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total / float64(len(xs))
}

// StdDev returns the sample (n-1) standard deviation; 0 for fewer than
// two points.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// MeanErr returns the mean and its ~95% normal-approximation half-width
// (1.96 standard errors). With fewer than two samples the half-width is
// zero.
func MeanErr(xs []float64) (mean, halfWidth float64) {
	mean = Mean(xs)
	if len(xs) < 2 {
		return mean, 0
	}
	halfWidth = 1.96 * StdDev(xs) / math.Sqrt(float64(len(xs)))
	return mean, halfWidth
}

// FormatMeanErr renders "mean ± half" with the given precision.
func FormatMeanErr(xs []float64, prec int) string {
	m, h := MeanErr(xs)
	return fmt.Sprintf("%.*f ± %.*f", prec, m, prec, h)
}
