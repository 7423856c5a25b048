package main

import (
	"math"
	"sort"
	"time"
)

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func sum(xs []float64) float64 {
	var total float64
	for _, x := range xs {
		total += x
	}
	return total
}

// median returns the middle of xs (the mean of the two middle values for
// an even count), or 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the nearest-rank q-quantile of xs: the smallest sample
// with at least q of the samples at or below it.
func quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(n, q)-1]
}

// rank is the 1-based nearest rank of the q-quantile among n samples. The
// small subtraction keeps a product like 0.9*100 from rounding up a rank.
func rank(n int, q float64) int {
	k := int(math.Ceil(q*float64(n) - 1e-9))
	return min(max(k, 1), n)
}

// tailPercentiles are the tails a timing may be reported at, lowest first.
var tailPercentiles = []float64{0.75, 0.90, 0.95, 0.99, 0.999}

// tailPercentile picks the highest percentile that still has at least ten
// of the n samples beyond it, so a reported tail is never one or two
// outliers. ok is false when even p75 has fewer than ten beyond it.
func tailPercentile(n int) (q float64, ok bool) {
	for _, p := range tailPercentiles {
		if n-rank(n, p) >= 10 {
			q, ok = p, true
		}
	}
	return q, ok
}
