package sti

import (
	"math"
	"sync"

	"repro/internal/geom"
	"repro/internal/reach"
	"repro/internal/roadmap"
	"repro/internal/telemetry"
	"repro/internal/vehicle"
)

// Cache telemetry: hits/misses count lookup outcomes on the cacheable map
// families (a lookup that waits for another goroutine's in-flight
// computation counts as a hit); bypasses count empty-world computations on
// map families the cache cannot serve (and near-segment-end straight-road
// states).
var (
	telCacheHits   = telemetry.NewCounter("sti.empty_cache.hits")
	telCacheMisses = telemetry.NewCounter("sti.empty_cache.misses")
	telCacheBypass = telemetry.NewCounter("sti.empty_cache.bypass")
)

// The empty-world tube volume |T^∅| depends only on the ego state relative
// to the road geometry: on a straight road it is invariant along x (far
// from the segment ends), on a ring road it is rotationally invariant.
// Caching it on a quantised relative pose removes one of the two
// reach-tube computations from the EvaluateCombined hot path.
//
// Values are computed at the quantisation bucket's representative state on
// the road the key names (by value, so every road geometry and map family
// has its own entries), so the cache is deterministic: a state on a given
// road always maps to the same volume regardless of call order.

type emptyKey struct {
	road                roadmap.Key
	lat, heading, speed int32
}

// cacheEntry is a singleflight slot: the first goroutine to miss on a key
// owns the computation; later arrivals block on done instead of paying a
// redundant reach-tube computation. val is written exactly once, before
// done is closed.
type cacheEntry struct {
	done chan struct{}
	val  float64
}

type emptyCache struct {
	mu sync.Mutex
	m  map[emptyKey]*cacheEntry
}

const (
	cacheLatQ     = 0.25 // metres
	cacheHeadingQ = 0.05 // radians
	cacheSpeedQ   = 0.5  // m/s
)

func newEmptyCache() *emptyCache {
	return &emptyCache{m: make(map[emptyKey]*cacheEntry, 256)}
}

// emptyVolume returns |T^∅| for the ego on map m, consulting the cache for
// translation-invariant map families. scr is the caller's scratch; it is
// only used if this goroutine ends up computing a tube itself.
func (e *Evaluator) emptyVolume(m roadmap.Map, ego vehicle.State, scr *reach.Scratch) float64 {
	v, _ := e.emptyVolumeState(m, ego, scr)
	return v
}

// emptyVolumeState is emptyVolume plus the cache outcome (CacheHit,
// CacheMiss or CacheBypass) for risk provenance.
func (e *Evaluator) emptyVolumeState(m roadmap.Map, ego vehicle.State, scr *reach.Scratch) (float64, string) {
	rk, _ := roadmap.KeyOf(m)
	switch road := m.(type) {
	case *roadmap.StraightRoad:
		// The cached volume is computed at the segment centre, so it is only
		// valid where the tube cannot interact with either segment end. The
		// required clearance is direction-aware: a tube extends a full
		// stopping-free path length towards where the ego is heading, but
		// against its heading only what remains after turning around at
		// maximum curvature (the bicycle model has no reverse gear).
		if road.XMax-ego.Pos.X < e.xClearance(ego, 0) ||
			ego.Pos.X-road.XMin < e.xClearance(ego, math.Pi) {
			break // near a segment end: x matters, compute directly
		}
		key := emptyKey{
			road:    rk,
			lat:     quantize(ego.Pos.Y, cacheLatQ),
			heading: quantize(ego.Heading, cacheHeadingQ),
			speed:   quantize(ego.Speed, cacheSpeedQ),
		}
		rep := vehicle.State{
			Pos:     geom.V(ego.Pos.X, dequantize(key.lat, cacheLatQ)),
			Heading: dequantize(key.heading, cacheHeadingQ),
			Speed:   dequantize(key.speed, cacheSpeedQ),
		}
		// Normalise x to the segment centre so the key is position-free.
		rep.Pos.X = (road.XMin + road.XMax) / 2
		v, hit := e.cache.lookup(key, func() float64 {
			return reach.ComputeScratch(m, nil, rep, e.cfg, scr).Volume
		})
		return v, cacheStateOf(hit)
	case *roadmap.RingRoad:
		radial := ego.Pos.Dist(road.Center)
		tangent := geom.NormalizeAngle(road.AngleOf(ego.Pos) + math.Pi/2)
		relHeading := geom.AngleDiff(ego.Heading, tangent)
		key := emptyKey{
			road:    rk,
			lat:     quantize(radial, cacheLatQ),
			heading: quantize(relHeading, cacheHeadingQ),
			speed:   quantize(ego.Speed, cacheSpeedQ),
		}
		rep := vehicle.State{Speed: dequantize(key.speed, cacheSpeedQ)}
		rep.Pos, rep.Heading = road.PoseAt(dequantize(key.lat, cacheLatQ), 0)
		rep.Heading = geom.NormalizeAngle(rep.Heading + dequantize(key.heading, cacheHeadingQ))
		v, hit := e.cache.lookup(key, func() float64 {
			return reach.ComputeScratch(m, nil, rep, e.cfg, scr).Volume
		})
		return v, cacheStateOf(hit)
	}
	telCacheBypass.Inc()
	return reach.ComputeScratch(m, nil, ego, e.cfg, scr).Volume, CacheBypass
}

func cacheStateOf(hit bool) string {
	if hit {
		return CacheHit
	}
	return CacheMiss
}

// xClearance bounds how far a reach tube rooted at ego can extend along the
// road direction dirAngle (0 for +x, π for −x), in metres. The bound is the
// maximum path length within the horizon — min(v₀·k + ½·a_max·k²,
// v_max·k) — reduced, when the ego heads away from that direction, by the
// arc it must cover at maximum curvature before its heading gains a
// component towards it, plus a footprint length of margin. It is
// deliberately conservative (curvature is bounded by tan(φ_max)/L
// irrespective of the speed-dependent lateral-acceleration cap, and path
// length ignores braking), never under-estimating the tube's extent.
func (e *Evaluator) xClearance(ego vehicle.State, dirAngle float64) float64 {
	p := e.cfg.Params
	k := e.cfg.Horizon
	// Speed enters the cache key quantised; pad so the bound also covers the
	// bucket's representative state.
	v0 := math.Min(ego.Speed+cacheSpeedQ/2, p.MaxSpeed)
	dist := math.Min(v0*k+0.5*p.MaxAccel*k*k, p.MaxSpeed*k)
	alpha := math.Abs(geom.AngleDiff(ego.Heading, dirAngle))
	if alpha > math.Pi/2 {
		// The heading points away: progress requires rotating by
		// (alpha − π/2) first, which costs arc length at bounded curvature.
		if minR := minTurnRadius(p); minR > 0 {
			dist -= (alpha - math.Pi/2) * minR
		}
	}
	return math.Max(dist, 0) + p.Length
}

// minTurnRadius is the tightest radius the bicycle model can trace:
// wheelbase over the maximum steering tangent. Zero means "unknown — assume
// turning is free" (conservative for xClearance).
func minTurnRadius(p vehicle.Params) float64 {
	if p.WheelBase <= 0 || p.MaxSteer <= 0 || p.MaxSteer >= math.Pi/2 {
		return 0
	}
	return p.WheelBase / math.Tan(p.MaxSteer)
}

// lookup returns the cached value for key, computing it via compute on the
// first request, plus whether the lookup was a hit (a wait on another
// goroutine's in-flight computation counts as one). Concurrent misses on
// the same key are collapsed (singleflight): exactly one caller runs
// compute, the others block until the value is published. compute runs
// outside the cache mutex so distinct keys compute concurrently.
func (c *emptyCache) lookup(key emptyKey, compute func() float64) (float64, bool) {
	c.mu.Lock()
	if e, ok := c.m[key]; ok {
		c.mu.Unlock()
		telCacheHits.Inc()
		<-e.done
		return e.val, true
	}
	e := &cacheEntry{done: make(chan struct{})}
	c.m[key] = e
	c.mu.Unlock()
	telCacheMisses.Inc()
	defer close(e.done)
	e.val = compute()
	return e.val, false
}

// Len returns the number of cached buckets (diagnostics).
func (c *emptyCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

func quantize(x, q float64) int32           { return int32(math.Round(x / q)) }
func dequantize(i int32, q float64) float64 { return float64(i) * q }
