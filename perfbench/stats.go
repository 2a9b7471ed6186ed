package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported: a p99 needs at least 1,000 samples, a p50 at least 21.
const minTail = 10

// percentile returns the nearest-rank q-quantile of xs and whether at
// least minTail samples lie strictly beyond that rank. xs is not
// modified.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return s[idx], n-1-idx >= minTail
}

// median is the 0.5 percentile without the tail-support rule, for
// small sets such as repeated set-up times.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// share is num/den, 0 for an empty denominator.
func share(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
