// Package stats provides the small statistical toolkit used by the
// experiment harness: medians, geometric means, percentiles, and
// accuracy/confusion accounting for the covert-channel and KASLR
// experiments.
//
// The paper reports "median of 10 runs", "geometric mean across all tests"
// (UnixBench methodology) and per-bit accuracy over 4096 transmitted bits;
// this package implements exactly those reductions.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Median returns the median of xs. It copies the input; xs is not modified.
// Median of an empty slice is 0.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// GeoMean returns the geometric mean of xs. All values must be positive;
// non-positive values are skipped (matching UnixBench, which drops failed
// sub-benchmarks from the index). GeoMean of no positive values is 0.
func GeoMean(xs []float64) float64 {
	var logSum float64
	n := 0
	for _, x := range xs {
		if x <= 0 {
			continue
		}
		logSum += math.Log(x)
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// StdDev returns the sample standard deviation of xs (n-1 denominator),
// or 0 when len(xs) < 2.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between closest ranks. It copies the input.
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
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Accuracy is a running tally of predicted-vs-true binary outcomes, used by
// the covert-channel experiments (Table 2) and the KASLR exploits
// (Tables 3-5).
type Accuracy struct {
	Correct int
	Total   int
}

// Add records one trial.
func (a *Accuracy) Add(correct bool) {
	a.Total++
	if correct {
		a.Correct++
	}
}

// Ratio returns the fraction of correct trials in [0,1], or 0 when empty.
func (a *Accuracy) Ratio() float64 {
	if a.Total == 0 {
		return 0
	}
	return float64(a.Correct) / float64(a.Total)
}

// Percent returns the accuracy as a percentage in [0,100].
func (a *Accuracy) Percent() float64 { return a.Ratio() * 100 }

// String formats the accuracy the way the paper's tables do, e.g. "93.04%".
func (a *Accuracy) String() string {
	return fmt.Sprintf("%.2f%%", a.Percent())
}

// BitErrors counts the number of positions at which the two bit slices
// disagree. Slices of unequal length are compared up to the shorter length
// and the length difference is added as errors.
func BitErrors(sent, recv []byte) int {
	n := len(sent)
	if len(recv) < n {
		n = len(recv)
	}
	errs := 0
	for i := 0; i < n; i++ {
		if sent[i] != recv[i] {
			errs++
		}
	}
	if len(sent) != len(recv) {
		d := len(sent) - len(recv)
		if d < 0 {
			d = -d
		}
		errs += d
	}
	return errs
}

// Clamp bounds x to [lo, hi]. It is the "bounded relative timing difference"
// operator from the paper's Section 7.3 scoring function.
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// ArgMax returns the index of the largest element of xs, or -1 for an empty
// slice. Ties resolve to the first maximum.
func ArgMax(xs []float64) int {
	if len(xs) == 0 {
		return -1
	}
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}
