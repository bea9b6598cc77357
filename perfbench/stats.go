package main

import (
	"fmt"
	"math"
	"sort"
)

// gmean is the geometric mean of positive samples. Solve latencies span two
// orders of magnitude across design sizes, so a plain median lands in the
// gap between size classes and jumps between runs; the geometric mean
// weighs every class and moves far less.
func gmean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("gmean of no samples")
	}
	var sum float64
	for _, x := range xs {
		if x <= 0 {
			return 0, fmt.Errorf("gmean of non-positive sample %v", x)
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs))), nil
}

// minBeyond is how many samples must lie above a reported percentile: a
// tail percentile resting on fewer is one or two outliers, not a tail.
const minBeyond = 10

// percentile is the nearest-rank p-quantile (0 < p < 1) of the samples. It
// refuses when fewer than minBeyond samples lie beyond the rank, so p90
// needs at least 100 samples.
func percentile(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 1 {
		return 0, fmt.Errorf("percentile %v outside (0,1)", p)
	}
	n := len(xs)
	rank := int(math.Ceil(p * float64(n)))
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d", p*100, minBeyond, max(0, n-rank), n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median is the middle sample (mean of the two middle ones for even n).
func median(xs []float64) float64 {
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

// mean is the arithmetic mean (0 for no samples).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is num/den, or 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
