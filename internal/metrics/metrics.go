// Package metrics provides the statistics the paper reports — job wait
// times (average and standard deviation), matchmaking cost, recovery
// counts — computed from the grid layer's event stream.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N                  int
	Mean, Std          float64
	Min, Max           float64
	P50, P90, P95, P99 float64
}

// Summarize computes descriptive statistics. An empty sample yields the
// zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs)}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Min, s.Max = sorted[0], sorted[len(sorted)-1]
	s.P50 = quantileSorted(sorted, 0.50)
	s.P90 = quantileSorted(sorted, 0.90)
	s.P95 = quantileSorted(sorted, 0.95)
	s.P99 = quantileSorted(sorted, 0.99)
	var sum float64
	for _, x := range xs {
		sum += x
	}
	s.Mean = sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	if len(xs) > 1 {
		s.Std = math.Sqrt(ss / float64(len(xs)-1))
	}
	return s
}

// Quantile interpolates the q-quantile of a sample (q in [0,1]). It is
// the exact-sample counterpart of obs.Histogram.Quantile's bucketed
// estimate; the obs tests cross-check the two. An empty sample yields
// 0.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

// quantileSorted interpolates the q-quantile of a sorted sample.
func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.2f std=%.2f min=%.2f p50=%.2f p95=%.2f max=%.2f",
		s.N, s.Mean, s.Std, s.Min, s.P50, s.P95, s.Max)
}

// Imbalance quantifies load imbalance across nodes: the coefficient of
// variation (std/mean) of per-node completed-job counts, plus the
// max/mean ratio. Perfect balance gives CV 0.
func Imbalance(perNode []float64) (cv, maxOverMean float64) {
	s := Summarize(perNode)
	if s.Mean == 0 {
		return 0, 0
	}
	return s.Std / s.Mean, s.Max / s.Mean
}
