package main

import (
	"sort"

	"repro/internal/metrics"
)

// median is the interpolated 0.5-quantile; 0 for an empty sample.
func median(xs []float64) float64 { return metrics.Quantile(xs, 0.5) }

func mean(xs []float64) float64 { return metrics.Summarize(xs).Mean }

// tailQuantile names the highest of p99.9/p99/p95/p90 that still has at
// least ten samples beyond it, which is the tail the choosing-metrics
// guide allows a sample of n to claim. Below 100 samples it falls back
// to the median.
func tailQuantile(n int) (q float64, label string) {
	for _, c := range []struct {
		q     float64
		label string
	}{{0.999, "p99.9"}, {0.99, "p99"}, {0.95, "p95"}, {0.90, "p90"}} {
		if float64(n)*(1-c.q) >= 10 {
			return c.q, c.label
		}
	}
	return 0.5, "p50"
}

// quartiles returns the first and third quartile with the method of
// Python's statistics.quantiles(xs, n=4) ("exclusive"), which is what
// the driver applies to the ten per-seed values of a metric.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 { // i in quarters
		pos := float64(i) * float64(n+1) / 4 // 1-based position
		lo := int(pos)
		if lo < 1 {
			lo = 1
		}
		if lo > n-1 {
			lo = n - 1
		}
		frac := pos - float64(lo)
		return s[lo-1] + frac*(s[lo]-s[lo-1])
	}
	return at(1), at(3)
}
