package main

import (
	"math"
	"sort"
)

// sortedCopy returns xs in ascending order without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of xs (the mean of the two middle values for
// an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile is the tail rule every run reports: the highest whole
// percentile q < 100 whose nearest-rank sample, at rank ceil(q·n/100), still
// has at least ten samples above it. It returns 0 when n < 11, where no
// percentile qualifies.
func tailPercentile(n int) int {
	for q := 99; q >= 1; q-- {
		if n-(q*n+99)/100 >= 10 {
			return q
		}
	}
	return 0
}

// percentile is the nearest-rank q-th percentile (0 <= q <= 100) of xs;
// q = 0 gives the minimum.
func percentile(xs []float64, q int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	k := (q*len(s) + 99) / 100
	if k < 1 {
		k = 1
	}
	return s[k-1]
}

// quartiles returns the first and third quartile of xs by the exclusive
// method (Python's statistics.quantiles(xs, n=4) default), so the repeat
// mode's spread is the one the benchmark contract is judged by.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		// Python's integer arithmetic: 1-based position i·(n+1)/4, the
		// lower index clamped to 1..n-1 (which extrapolates at the ends).
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(med)
}
