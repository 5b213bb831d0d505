// Package sti implements the Safety-Threat Indicator — the iPrism paper's
// primary contribution (§III-A). STI answers the counterfactual query "how
// many more escape routes would the ego vehicle have if actor i were not
// present?", using reach-tube volumes as the measure of escape routes:
//
//	STI_i        = (|T^{/i}| − |T|) / |T^∅|        (Eq. 4)
//	STI_combined = (|T^∅|   − |T|) / |T^∅|        (Eq. 5)
//
// where |T| is the tube with every actor present, |T^{/i}| without actor i,
// and |T^∅| in an empty world.
package sti

import (
	"context"
	"math"
	"sync"

	"repro/internal/actor"
	"repro/internal/reach"
	"repro/internal/roadmap"
	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
	"repro/internal/vehicle"
)

// Telemetry (collected only when telemetry.Enable has been called; see
// DESIGN.md "Observability" for the metric index).
var (
	telEvaluations     = telemetry.NewCounter("sti.evaluations")
	telEvalSeconds     = telemetry.NewHistogram("sti.evaluate.seconds", telemetry.LatencyBuckets())
	telCombinedSeconds = telemetry.NewHistogram("sti.evaluate_combined.seconds", telemetry.LatencyBuckets())
	telActorsPerEval   = telemetry.NewHistogram("sti.actors_per_eval", telemetry.LinearBuckets(0, 1, 16))
	// telElided counts per-actor counterfactuals that needed no tube of
	// their own: the dead-band certificate, and the single-actor scene's
	// never-blocked actor or empty-world identity.
	telElided = telemetry.NewCounter("sti.counterfactuals.elided")
	// Shared expansion (every scene of two or more actors): evaluation
	// latency, how many actors each evaluation carried as world-mask bits,
	// and how many mask words the expansion needed (1 = single-word loop).
	telSharedSeconds   = telemetry.NewHistogram("sti.shared_expansion.seconds", telemetry.LatencyBuckets())
	telSharedEvals     = telemetry.NewCounter("sti.shared_expansion.evals")
	telSharedMaskWidth = telemetry.NewHistogram("sti.shared_expansion.mask_width", telemetry.LinearBuckets(0, 8, 18))
	telSharedMaskWords = telemetry.NewHistogram("sti.shared_expansion.mask_words", telemetry.LinearBuckets(0, 1, 5))
	// Warm start (EvaluateWarm with a WarmState): the fraction of warm
	// evaluations whose previous-tick expansion state was actually usable
	// (ego root bitwise-stable, same config/map/actor count).
	telWarmHitRatio = telemetry.NewGauge("sti.warm.hit_ratio")
)

// Result holds STI values for one evaluation instant.
type Result struct {
	// PerActor[i] is STI of actors[i] in [0, 1].
	PerActor []float64
	// Combined is STI^(combined) in [0, 1].
	Combined float64

	// Raw tube volumes backing the ratios, useful for diagnostics and the
	// paper's Fig. 7 visualisations.
	BaseVolume    float64   // |T|
	EmptyVolume   float64   // |T^∅|
	WithoutVolume []float64 // |T^{/i}|
}

// MostThreatening returns the index and value of the highest per-actor STI,
// or (-1, 0) if there are no actors.
func (r Result) MostThreatening() (int, float64) {
	best, bestV := -1, 0.0
	for i, v := range r.PerActor {
		if best == -1 || v > bestV {
			best, bestV = i, v
		}
	}
	return best, bestV
}

// Evaluator computes STI for scenes. It is stateless apart from
// configuration, the empty-world volume cache and pooled scratch memory,
// and is safe for concurrent use.
//
// Every scene of two or more actors is scored by one shared expansion
// (reach.ComputeCounterfactuals), which derives |T| and every |T^{/i}| at
// once. Single-actor scenes take two plain tubes instead (see evaluate).
type Evaluator struct {
	cfg   reach.Config
	cache *emptyCache
	// scratch pools *reach.Scratch so the tube computations of concurrent
	// evaluations reuse frontier slices and dedup and occupancy tables
	// instead of churning the GC.
	scratch sync.Pool
}

// NewEvaluator returns an evaluator with the given reach-tube
// configuration.
func NewEvaluator(cfg reach.Config) (*Evaluator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &Evaluator{cfg: cfg, cache: newEmptyCache()}
	e.scratch.New = func() any { return reach.NewScratch() }
	return e, nil
}

// MustNewEvaluator is NewEvaluator for known-good configurations.
func MustNewEvaluator(cfg reach.Config) *Evaluator {
	e, err := NewEvaluator(cfg)
	if err != nil {
		panic(err)
	}
	return e
}

// Config returns the evaluator's reach configuration.
func (e *Evaluator) Config() reach.Config { return e.cfg }

// Evaluate computes per-actor and combined STI for the ego at state ego on
// map m, given each actor's (predicted or ground-truth) trajectory.
// trajs[i] must correspond to actors[i].
func (e *Evaluator) Evaluate(m roadmap.Map, ego vehicle.State, actors []*actor.Actor, trajs []actor.Trajectory) Result {
	res, _ := e.evaluate(nil, m, ego, actors, trajs, nil)
	return res
}

// EvaluateTraced is Evaluate with request-scoped tracing and risk
// provenance: spans land on the trace.Recorder carried by ctx (if any), and
// the returned Provenance reports which engine scored the scene, the
// empty-volume cache outcome and the certificate work skipped. With no
// recorder in ctx the result is identical to Evaluate.
func (e *Evaluator) EvaluateTraced(ctx context.Context, m roadmap.Map, ego vehicle.State, actors []*actor.Actor, trajs []actor.Trajectory) (Result, Provenance) {
	return e.evaluate(trace.FromContext(ctx), m, ego, actors, trajs, nil)
}

// evaluate is the body of every Evaluate entry point. rec may be nil (the
// common untraced path); every span call is nil-safe, so tracing costs the
// hot path one pointer check per call site. ws is the caller-owned warm
// state of a multi-actor scene, or nil to score cold.
//
// Single-actor scenes keep their own computation: one base tube recording
// whether the actor ever exclusively blocked a candidate, with |T^{/0}| the
// empty world, whose cached |T^∅| the combined ratio already uses. Scoring
// them on the shared expansion instead changed bits, since it computes
// |T^{/0}| exactly rather than from the cache, and was 32–35% slower on
// that class (perfbench's seed-7 corpus on a 2-vCPU host; DESIGN.md §8).
func (e *Evaluator) evaluate(rec *trace.Recorder, m roadmap.Map, ego vehicle.State, actors []*actor.Actor, trajs []actor.Trajectory, ws *reach.WarmState) (Result, Provenance) {
	defer telEvalSeconds.Start().Stop()
	telEvaluations.Inc()
	telActorsPerEval.Observe(float64(len(actors)))
	scr := e.takeScratch()
	defer e.putScratch(scr)
	if len(actors) == 0 {
		sp := rec.StartSpan("reach.empty_tube")
		vol := reach.ComputeScratch(m, nil, ego, e.cfg, scr).Volume
		sp.End()
		return Result{BaseVolume: vol, EmptyVolume: vol}, Provenance{Engine: EngineEmpty, CacheState: CacheBypass}
	}
	if len(actors) > 1 {
		defer telSharedSeconds.Start().Stop()
		telSharedEvals.Inc()
	}
	obs := reach.BuildObstacles(actors, trajs, e.cfg)
	sp := rec.StartSpan("reach.empty_tube")
	emptyVol, cacheState := e.emptyVolumeState(m, ego, scr)
	sp.Annotate("cache_state", cacheState).End()
	prov := Provenance{CacheState: cacheState}
	res := Result{
		PerActor:      make([]float64, len(actors)),
		WithoutVolume: make([]float64, len(actors)),
		EmptyVolume:   emptyVol,
	}
	var marks []bool      // single actor: whether it exclusively blocked
	var without []float64 // shared expansion: every |T^{/i}|
	if len(actors) == 1 {
		prov.Engine = EngineSingle
		marks = make([]bool, 1)
		sp = rec.StartSpan("reach.base_tube")
		res.BaseVolume = reach.ComputeScratch(m, obs.CollideRecording(marks), ego, e.cfg, scr).Volume
		sp.End()
	} else {
		prov.Engine = EngineShared
		sh := e.expand(rec, m, obs, ego, scr, ws, &prov)
		res.BaseVolume, without = sh.BaseVolume, sh.WithoutVolume
	}

	if emptyVol <= 0 {
		// The ego has no escape routes even in an empty world (off-road or
		// wedged); actors cannot be responsible, so STI is defined as zero.
		return res, prov
	}
	res.Combined = snap(clamp01((emptyVol - res.BaseVolume) / emptyVol))

	// Dead-band certificate: |T| ≤ |T^{/i}| ≤ |T^∅| (up to the dedup
	// jitter the dead band exists to absorb), so every per-actor ratio is
	// bounded by the combined ratio. A combined STI snapped to zero
	// certifies every per-actor STI snaps to zero too — report |T| for the
	// without-volumes (correct to within deadBand·|T^∅|).
	if res.Combined == 0 {
		telElided.Add(int64(len(actors)))
		prov.ElidedActors = len(actors)
		for i := range actors {
			res.WithoutVolume[i] = res.BaseVolume
		}
		return res, prov
	}
	if len(actors) == 1 {
		// Neither single-actor case needs a counterfactual tube. An actor
		// that never exclusively blocked a candidate never changed a
		// collision verdict, so the deterministic expansion without it is
		// the base one: T^{/0} = T exactly. Otherwise removing the only
		// actor leaves the empty world: T^{/0} = T^∅, with the same cached
		// |T^∅| the combined ratio uses.
		telElided.Inc()
		prov.ElidedActors = 1
		if marks[0] {
			res.WithoutVolume[0] = emptyVol
			res.PerActor[0] = res.Combined
		} else {
			res.WithoutVolume[0] = res.BaseVolume
		}
		return res, prov
	}
	for i, wo := range without {
		res.WithoutVolume[i] = wo
		res.PerActor[i] = snap(clamp01((wo - res.BaseVolume) / emptyVol))
	}
	return res, prov
}

// expand runs the shared expansion — warm-started when ws is non-nil —
// inside a "reach.shared_expansion" span annotated with its shape, and
// records the outcome in prov.
func (e *Evaluator) expand(rec *trace.Recorder, m roadmap.Map, obs *reach.Obstacles, ego vehicle.State, scr *reach.Scratch, ws *reach.WarmState, prov *Provenance) reach.SharedTubes {
	sp := rec.StartSpan("reach.shared_expansion")
	var sh reach.SharedTubes
	if ws != nil {
		var stats reach.WarmStats
		sh, stats = reach.ComputeCounterfactualsWarm(m, obs, ego, e.cfg, scr, ws)
		prov.WarmHit, prov.WarmReused, prov.WarmInvalidated = stats.Hit, stats.Reused, stats.Invalidated
		noteWarmOutcome(stats.Hit)
	} else {
		sh = reach.ComputeCounterfactuals(m, obs, ego, e.cfg, scr)
	}
	prov.MaskWidth, prov.MaskWords = obs.NumActors(), sh.MaskWords
	telSharedMaskWidth.Observe(float64(prov.MaskWidth))
	telSharedMaskWords.Observe(float64(prov.MaskWords))
	if sp != nil {
		sp.Annotate("states", sh.States).
			Annotate("mask_width", prov.MaskWidth).
			Annotate("mask_words", prov.MaskWords)
		if ws != nil {
			sp.Annotate("warm_hit", prov.WarmHit).
				Annotate("warm_reused", prov.WarmReused).
				Annotate("warm_invalidated", prov.WarmInvalidated)
		}
		sp.End()
	}
	return sh
}

// deadBand absorbs the bounded quantisation error of the cached empty-world
// volume: ratios below it are reported as exactly zero risk.
const deadBand = 0.03

func snap(v float64) float64 {
	if v < deadBand {
		return 0
	}
	return v
}

// EvaluateCombined computes only STI^(combined), skipping the per-actor
// counterfactuals. This is the fast path used inside the SMC reward loop:
// two plain reach tubes (one on an empty-volume cache hit), no shared
// expansion.
func (e *Evaluator) EvaluateCombined(m roadmap.Map, ego vehicle.State, actors []*actor.Actor, trajs []actor.Trajectory) float64 {
	defer telCombinedSeconds.Start().Stop()
	telEvaluations.Inc()
	telActorsPerEval.Observe(float64(len(actors)))
	if len(actors) == 0 {
		return 0
	}
	scr := e.takeScratch()
	defer e.putScratch(scr)
	obs := reach.BuildObstacles(actors, trajs, e.cfg)
	emptyVol := e.emptyVolume(m, ego, scr)
	if emptyVol <= 0 {
		return 0
	}
	base := reach.ComputeScratch(m, obs.Collide(), ego, e.cfg, scr)
	return snap(clamp01((emptyVol - base.Volume) / emptyVol))
}

func (e *Evaluator) takeScratch() *reach.Scratch { return e.scratch.Get().(*reach.Scratch) }
func (e *Evaluator) putScratch(s *reach.Scratch) { e.scratch.Put(s) }

// EvaluateWithPrediction is a convenience wrapper that forecasts every
// actor's trajectory with the CVTR model before evaluating STI — the
// configuration used online by the SMC (§IV-C).
func (e *Evaluator) EvaluateWithPrediction(m roadmap.Map, ego vehicle.State, actors []*actor.Actor) Result {
	trajs := actor.PredictAll(actors, e.cfg.NumSlices(), e.cfg.SliceDt)
	return e.Evaluate(m, ego, actors, trajs)
}

// CombinedWithPrediction is EvaluateCombined with CVTR-predicted actor
// trajectories.
func (e *Evaluator) CombinedWithPrediction(m roadmap.Map, ego vehicle.State, actors []*actor.Actor) float64 {
	trajs := actor.PredictAll(actors, e.cfg.NumSlices(), e.cfg.SliceDt)
	return e.EvaluateCombined(m, ego, actors, trajs)
}

func clamp01(x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
