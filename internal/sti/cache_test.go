package sti

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/geom"
	"repro/internal/reach"
	"repro/internal/roadmap"
	"repro/internal/vehicle"
)

// Regression for the asymmetric segment-end guard: the cache used to demand
// a full tube length of clearance towards XMax but only a footprint length
// towards XMin, so an ego close behind the segment start was served the
// segment-centre volume even though its tube was clipped by the boundary.
func TestCacheGuardSymmetricNearSegmentStart(t *testing.T) {
	e := eval(t)
	m := testRoad() // x ∈ [-50, 500]
	scr := reach.NewScratch()

	// 10 m from XMin, heading towards it at speed: the tube runs past the
	// segment start and is clipped, so the cache must not serve the
	// translation-invariant centre volume. (The pre-fix guard only demanded
	// a footprint length of clearance on this side.)
	near := vehicle.State{Pos: geom.V(-40, 1.75), Heading: math.Pi, Speed: 12}
	got := e.emptyVolume(m, near, scr)
	if n := e.cache.Len(); n != 0 {
		t.Fatalf("near-XMin state was cached (%d entries), want guard bypass", n)
	}
	direct := reach.Compute(m, nil, near, e.cfg).Volume
	if got != direct {
		t.Errorf("bypassed emptyVolume = %v, want direct computation %v", got, direct)
	}

	// The same relative pose far from both ends is cacheable, and its volume
	// differs from the clipped one — the value the old guard handed out.
	mid := vehicle.State{Pos: geom.V(225, 1.75), Heading: math.Pi, Speed: 12}
	center := e.emptyVolume(m, mid, scr)
	if n := e.cache.Len(); n != 1 {
		t.Fatalf("mid-segment state not cached (%d entries)", n)
	}
	if center == got {
		t.Errorf("clipped volume %v equals centre volume: guard regression test is vacuous", got)
	}
	if center < got {
		t.Errorf("centre volume %v < boundary-clipped volume %v", center, got)
	}
}

func TestXClearanceDirectionAware(t *testing.T) {
	e := eval(t)
	s := ego(0, 1.75, 10)
	fwd := e.xClearance(s, 0)
	bwd := e.xClearance(s, math.Pi)
	if bwd >= fwd {
		t.Errorf("clearance against heading (%v) should be below clearance along it (%v)", bwd, fwd)
	}
	if min := e.cfg.Params.Length; bwd < min || fwd < min {
		t.Errorf("clearances %v/%v must include the footprint margin %v", fwd, bwd, min)
	}
}

// Concurrent misses on one key must collapse to a single computation, with
// every caller observing the same published value.
func TestEmptyCacheSingleflight(t *testing.T) {
	c := newEmptyCache()
	key := emptyKey{lat: 7, heading: 0, speed: 20}

	var computes atomic.Int64
	var release = make(chan struct{})
	compute := func() float64 {
		computes.Add(1)
		<-release // hold the flight open so every goroutine joins it
		return 42.5
	}

	const callers = 8
	results := make([]float64, callers)
	var started, done sync.WaitGroup
	started.Add(callers)
	done.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer done.Done()
			started.Done()
			results[i], _ = c.lookup(key, compute)
		}(i)
	}
	started.Wait()
	close(release)
	done.Wait()

	if n := computes.Load(); n != 1 {
		t.Errorf("compute ran %d times for one key, want 1", n)
	}
	for i, v := range results {
		if v != 42.5 {
			t.Errorf("caller %d got %v, want 42.5", i, v)
		}
	}
	if c.Len() != 1 {
		t.Errorf("cache holds %d entries, want 1", c.Len())
	}
}

// The empty-volume cache is keyed on the road by value. On one evaluator,
// two straight roads scored in either order must get the volumes fresh
// evaluators report, and a straight road and a ring road whose relative
// poses quantise to the same bucket must not share an entry.
func TestEmptyCacheKeyedOnRoad(t *testing.T) {
	twoLane := roadmap.MustStraightRoad(2, 3.5, -50, 500)
	fourLane := roadmap.MustStraightRoad(4, 3.5, -50, 500)
	wide := roadmap.MustStraightRoad(8, 3.5, -50, 500)
	ring, err := roadmap.NewRingRoad(geom.V(0, 0), 14, 28)
	if err != nil {
		t.Fatal(err)
	}
	onRing := vehicle.State{Speed: 10}
	onRing.Pos, onRing.Heading = ring.PoseAt(19.25, 0.3)
	cases := []struct {
		m   roadmap.Map
		ego vehicle.State
	}{
		{twoLane, ego(225, 1.75, 10)},
		{fourLane, ego(225, 1.75, 10)},
		{wide, ego(225, 19.25, 10)},
		{ring, onRing},
	}
	want := make([]float64, len(cases))
	for i, c := range cases {
		want[i] = eval(t).emptyVolume(c.m, c.ego, reach.NewScratch())
	}
	if want[0] == want[1] || want[2] == want[3] {
		t.Fatalf("fresh volumes %v do not tell the roads apart: test is vacuous", want)
	}
	for _, order := range [][]int{{0, 1}, {1, 0}, {2, 3}, {3, 2}} {
		e := eval(t)
		scr := reach.NewScratch()
		for _, i := range order {
			if got := e.emptyVolume(cases[i].m, cases[i].ego, scr); got != want[i] {
				t.Errorf("order %v, road %d: |T^∅| = %v, fresh evaluator %v", order, i, got, want[i])
			}
		}
		if n := e.cache.Len(); n != 2 {
			t.Errorf("order %v: %d cache entries, want one per road", order, n)
		}
	}
}
