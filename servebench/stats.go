package main

import (
	"math"
	"sort"
)

// quantile is the q-quantile of xs by linear interpolation between
// closest ranks (xs need not be sorted; it is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile is the highest of p99, p98, p97, p95, p90 and p50 that
// has at least ten samples beyond it, and that quantile's value.
func tailQuantile(xs []float64) (q, v float64) {
	for _, q := range []float64{0.99, 0.98, 0.97, 0.95, 0.90, 0.5} {
		if float64(len(xs))*(1-q) >= 10 {
			return q, quantile(xs, q)
		}
	}
	return 0.5, quantile(xs, 0.5)
}

func ms(d float64) float64 { return d * 1e3 }
