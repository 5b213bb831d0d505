package main

import (
	"math"
	"testing"
)

func TestPercentileIsAnOrderStatistic(t *testing.T) {
	// 1..100 shuffled: the nearest-rank p-th percentile of n=100 distinct
	// values is exactly the value p.
	var s samples
	for i := 0; i < 100; i++ {
		s = append(s, float64((i*37)%100+1))
	}
	for _, p := range []float64{1, 50, 95, 99, 100} {
		if got := s.percentile(p); got != p {
			t.Errorf("p%v of 1..100 = %v, want %v", p, got, p)
		}
	}
	cases := []struct {
		s    samples
		p    float64
		want float64
	}{
		{samples{5}, 50, 5},
		{samples{5}, 99, 5},
		{samples{3, 1, 2}, 50, 2},
		{samples{4, 1, 3, 2}, 50, 2}, // ceil(0.5*4) = 2nd smallest, no averaging
		{samples{4, 1, 3, 2}, 99, 4}, // ceil(0.99*4) = 4th
		{samples{10, 20, 30, 40, 50, 60, 70, 80, 90, 1000}, 90, 90},
		{samples{10, 20, 30, 40, 50, 60, 70, 80, 90, 1000}, 99, 1000},
	}
	for _, c := range cases {
		if got := c.s.percentile(c.p); got != c.want {
			t.Errorf("p%v of %v = %v, want %v", c.p, c.s, got, c.want)
		}
	}
	// Every percentile must be one of the samples (no interpolation).
	odd := samples{0.3, 7.25, 1.5, 2.125}
	for p := 1.0; p <= 100; p++ {
		v := odd.percentile(p)
		found := false
		for _, x := range odd {
			found = found || x == v
		}
		if !found {
			t.Fatalf("p%v = %v is not a sample of %v", p, v, odd)
		}
	}
	if !math.IsNaN(samples(nil).percentile(50)) {
		t.Error("percentile of no samples must be NaN")
	}
}
