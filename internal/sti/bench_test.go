package sti

import (
	"testing"

	"repro/internal/actor"
	"repro/internal/geom"
	"repro/internal/reach"
	"repro/internal/scenario"
	"repro/internal/vehicle"
)

// BenchmarkEvaluateCombined measures the SMC-loop fast path (§V-E reports
// 0.61 s for the authors' Python implementation of the full evaluation).
func BenchmarkEvaluateCombined(b *testing.B) {
	e := MustNewEvaluator(reach.DefaultConfig())
	m := testRoad()
	actors := []*actor.Actor{
		actor.NewVehicle(1, vehicle.State{Pos: geom.V(14, 1.75), Speed: 3}),
		actor.NewVehicle(2, vehicle.State{Pos: geom.V(5, 5.25), Speed: 10}),
		actor.NewVehicle(3, vehicle.State{Pos: geom.V(-15, 1.75), Speed: 15}),
	}
	egoS := ego(0, 1.75, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.CombinedWithPrediction(m, egoS, actors)
	}
}

// BenchmarkEvaluateFull measures the full per-actor counterfactual
// evaluation of a three-actor scene.
func BenchmarkEvaluateFull(b *testing.B) {
	e := MustNewEvaluator(reach.DefaultConfig())
	m := testRoad()
	actors := []*actor.Actor{
		actor.NewVehicle(1, vehicle.State{Pos: geom.V(14, 1.75), Speed: 3}),
		actor.NewVehicle(2, vehicle.State{Pos: geom.V(5, 5.25), Speed: 10}),
		actor.NewVehicle(3, vehicle.State{Pos: geom.V(-15, 1.75), Speed: 15}),
	}
	egoS := ego(0, 1.75, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.EvaluateWithPrediction(m, egoS, actors)
	}
}

// BenchmarkEvaluateDense12 measures the full evaluation on the dense
// 12-actor scene — the workload class the shared expansion exists for:
//
//	go test -bench 'EvaluateDense12' -run - ./internal/sti
func BenchmarkEvaluateDense12(b *testing.B) {
	e := MustNewEvaluator(reach.DefaultConfig())
	m, egoS, actors := dense12Scene()
	trajs := actor.PredictAll(actors, e.cfg.NumSlices(), e.cfg.SliceDt)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Evaluate(m, egoS, actors, trajs)
	}
}

// BenchmarkEvaluateCrowd128 measures a 128-actor crowd (the UrbanCrush
// session's first tick), scored by the segmented-mask loop.
func BenchmarkEvaluateCrowd128(b *testing.B) {
	e := MustNewEvaluator(reach.DefaultConfig())
	m, trace := scenario.UrbanCrushSession(128, 1)
	tick := trace[0]
	trajs := actor.PredictAll(tick.Actors, e.cfg.NumSlices(), e.cfg.SliceDt)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Evaluate(m, tick.Ego, tick.Actors, trajs)
	}
}

// benchmarkSession12 replays the canonical 12-actor stop-and-go session
// trace through one evaluator, measuring the per-tick cost of session
// scoring. Warm keeps one WarmState across the whole replay (ticks after
// the first revalidate the previous expansion); cold recomputes every tick.
// Compare:
//
//	go test -bench 'EvaluateSession12' -run - ./internal/sti
func benchmarkSession12(b *testing.B, warm bool) {
	e := MustNewEvaluator(reach.DefaultConfig())
	m, trace := scenario.StopAndGoSession(12, 40)
	var ws *WarmState
	if warm {
		ws = NewWarmState()
	}
	trajs := make([][]actor.Trajectory, len(trace))
	for t, tick := range trace {
		trajs[t] = actor.PredictAll(tick.Actors, e.cfg.NumSlices(), e.cfg.SliceDt)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick := trace[i%len(trace)]
		e.EvaluateWarm(m, tick.Ego, tick.Actors, trajs[i%len(trace)], ws)
	}
}

func BenchmarkEvaluateSession12Cold(b *testing.B) { benchmarkSession12(b, false) }
func BenchmarkEvaluateSession12Warm(b *testing.B) { benchmarkSession12(b, true) }
