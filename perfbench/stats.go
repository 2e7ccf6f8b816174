package main

import (
	"math"
	"sort"
)

// beyond counts the samples strictly above the p-th percentile rank of
// n samples.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)-1e-9))
}

// minSamplesFor is the smallest sample count that leaves at least ten
// samples beyond the p-th percentile: the rule a reported tail
// percentile must meet.
func minSamplesFor(p float64) int {
	n := 1
	for beyond(n, p) < 10 {
		n++
	}
	return n
}

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks (the R-7 / numpy default). xs need not be
// sorted; NaN for an empty slice. +Inf samples (failed operations)
// sort last, so a failure counts as missing any latency limit: a rank
// that reaches them reads +Inf.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	if math.IsInf(s[hi], 1) {
		return s[hi]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is percentile 50.
func median(xs []float64) float64 { return percentile(xs, 50) }

// mean of xs; NaN when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
