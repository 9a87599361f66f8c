package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), like Python's statistics.median.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs by the method
// of Python's statistics.quantiles(xs, n=4) (the default "exclusive"
// method), so the steadiness mode reports the same spread the
// benchmark's acceptance check computes. xs needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// tailLadder is the set of percentiles tail considers, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75}

// tail returns the highest percentile up to maxP (from tailLadder) that
// leaves at least ten samples above it, with its nearest-rank value:
// a tail figure is only reported where it rests on ten or more slower
// samples. ok is false when no ladder percentile qualifies (fewer than
// 40 samples); tail then returns the maximum with p = 100.
func tail(xs []float64, maxP float64) (p, v float64, ok bool) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 100, math.NaN(), false
	}
	for _, p := range tailLadder {
		if p > maxP {
			continue
		}
		rank := int(math.Ceil(p / 100 * float64(n)))
		if rank >= 1 && n-rank >= 10 {
			return p, s[rank-1], true
		}
	}
	return 100, s[n-1], false
}

// percentile is the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
