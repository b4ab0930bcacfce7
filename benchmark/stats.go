package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the p-th percentile of sorted (ascending), or
// false when fewer than minBeyond samples lie beyond it: a tail read
// off a handful of samples is noise and is not reported.
func percentile(sorted []float64, p float64) (float64, bool) {
	n := len(sorted)
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if n == 0 || n-1-i < minBeyond {
		return 0, false
	}
	return sorted[i], true
}

// tailPercentile is percentile(p) where the samples support it, else
// the highest percentile they do support; false below 2*minBeyond
// samples.
func tailPercentile(sorted []float64, p float64) (float64, bool) {
	n := len(sorted)
	if n < 2*minBeyond {
		return 0, false
	}
	if v, ok := percentile(sorted, p); ok {
		return v, true
	}
	return sorted[n-1-minBeyond], true
}

// median is the plain median of a few repetitions (set-ups, recoveries),
// where the ten-beyond rule does not apply; 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// quartileSpread is the distance between the first and third quartile
// of xs as a share of their median, with the quartiles placed as
// Python's statistics.quantiles(xs, n=4) places them (the driver's
// rule); 0 for fewer than two values.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := sorted(xs)
	q := func(k int) float64 { // exclusive method: position k*(n+1)/4, 1-based
		pos := float64(k*(n+1)) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return math.Abs(q(3)-q(1)) / math.Abs(m)
}
