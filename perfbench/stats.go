package main

import (
	"fmt"
	"math"
	"sort"
)

// samples is a set of raw per-operation measurements. Every percentile the
// benchmark reports is an order statistic of these values, never an
// interpolation and never a histogram bucket.
type samples []float64

// sorted returns a sorted copy.
func (s samples) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100): the
// smallest sample with at least p% of the samples at or below it. It is
// NaN for an empty set.
func (s samples) percentile(p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	v := s.sorted()
	return v[rank(p, len(v))]
}

// rank is the 0-based index of the nearest-rank p-th percentile among n
// sorted samples.
func rank(p float64, n int) int {
	k := int(math.Ceil(p / 100 * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k - 1
}

// median is the 50th nearest-rank percentile.
func (s samples) median() float64 { return s.percentile(50) }

// mean is the arithmetic mean (NaN when empty).
func (s samples) mean() float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t / float64(len(s))
}

// summary formats p50/p99 with the sample count they come from.
func (s samples) summary(unit string) string {
	if len(s) == 0 {
		return "n=0"
	}
	return fmt.Sprintf("p50 %.4f %s  p99 %.4f %s  (n=%d)", s.percentile(50), unit, s.percentile(99), unit, len(s))
}
