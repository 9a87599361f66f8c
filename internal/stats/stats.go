// Package stats provides the small statistical toolkit used by the
// experiment harness: medians, geometric means, and accuracy accounting
// for the covert-channel and KASLR experiments.
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
