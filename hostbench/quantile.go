package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs:
// the smallest sample with at least p·n samples at or below it. It
// returns 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)]
}

// rank is the 0-based index of the nearest-rank p-quantile among n
// sorted samples.
func rank(n int, p float64) int {
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// beyond counts the samples strictly above the nearest-rank
// p-quantile of n samples.
func beyond(n int, p float64) int { return n - 1 - rank(n, p) }

// tailError reports whether n samples support the p-quantile: a
// percentile is only stated when at least ten samples lie beyond it.
func tailError(n int, p float64) error {
	if b := beyond(n, p); b < 10 {
		return fmt.Errorf("p%g of %d samples has %d samples beyond it, want >= 10", p*100, n, b)
	}
	return nil
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio divides, returning 0 for an empty base so that no metric is NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
