package sti

import (
	"testing"

	"repro/internal/actor"
	"repro/internal/reach"
	"repro/internal/roadmap"
	"repro/internal/vehicle"
)

// oracleEvaluate is the per-actor STI definition the evaluator is checked
// against: N+1 independent reach tubes — |T| with every actor, and one
// |T^{/i}| per actor with that actor removed (Eq. 4) — with no shared
// expansion and no blocker-mark elision. It applies the evaluator's two
// reporting conventions: the dead-band certificate (a combined STI snapped
// to zero reports |T| as every without-volume) and the N = 1 identity (the
// only actor's counterfactual is the empty world, so it reports the cached
// |T^∅| the combined ratio uses). |T^∅| comes from o's empty-volume cache;
// o is never used to evaluate.
func oracleEvaluate(o *Evaluator, m roadmap.Map, ego vehicle.State, actors []*actor.Actor, trajs []actor.Trajectory) Result {
	cfg := o.cfg
	if len(actors) == 0 {
		vol := reach.Compute(m, nil, ego, cfg).Volume
		return Result{BaseVolume: vol, EmptyVolume: vol}
	}
	obs := reach.BuildObstacles(actors, trajs, cfg)
	res := Result{
		PerActor:      make([]float64, len(actors)),
		WithoutVolume: make([]float64, len(actors)),
		BaseVolume:    reach.Compute(m, obs.Collide(), ego, cfg).Volume,
		EmptyVolume:   o.emptyVolume(m, ego, reach.NewScratch()),
	}
	if res.EmptyVolume <= 0 {
		return res
	}
	res.Combined = snap(clamp01((res.EmptyVolume - res.BaseVolume) / res.EmptyVolume))
	for i := range actors {
		switch {
		case res.Combined == 0:
			res.WithoutVolume[i] = res.BaseVolume
		case len(actors) == 1:
			res.WithoutVolume[i] = res.EmptyVolume
			res.PerActor[i] = res.Combined
		default:
			wo := reach.Compute(m, obs.CollideWithout(i), ego, cfg).Volume
			res.WithoutVolume[i] = wo
			res.PerActor[i] = snap(clamp01((wo - res.BaseVolume) / res.EmptyVolume))
		}
	}
	return res
}

// oracleAndEngine returns an evaluator whose only use is oracleEvaluate's
// empty-volume cache, and the evaluator under test.
func oracleAndEngine(t testing.TB) (oracle, engine *Evaluator) {
	t.Helper()
	cfg := reach.DefaultConfig()
	oracle, err := NewEvaluator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	engine, err = NewEvaluator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return oracle, engine
}
