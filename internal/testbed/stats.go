// Package testbed drives the paper's evaluation (§4) on the simulated
// office: it generates topology populations, runs every strategy through
// the full COPA pipeline on each, and produces the data behind every
// figure and table — CDFs of aggregate throughput (Figs. 10–13), the
// nulling micro-measurements (Figs. 2–4, 7), the topology scatter
// (Fig. 9), MAC overhead (Table 1), and the multi-decoder study (Fig. 14).
package testbed

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		s += (x - m) * (x - m)
	}
	return math.Sqrt(s / float64(len(xs)))
}

// Median returns the middle value (mean of the two middles for even n).
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Percentile returns the p-th percentile (0–100) by linear interpolation.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// CDFPoint is one step of an empirical CDF.
type CDFPoint struct {
	Value float64
	P     float64
}

// CDF returns the empirical distribution of xs as sorted (value, P≤) steps.
func CDF(xs []float64) []CDFPoint {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := make([]CDFPoint, len(s))
	for i, v := range s {
		out[i] = CDFPoint{Value: v, P: float64(i+1) / float64(len(s))}
	}
	return out
}
