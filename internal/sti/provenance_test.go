package sti

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/actor"
	"repro/internal/reach"
	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
	"repro/internal/vehicle"
)

func blockingActors(n int) []*actor.Actor {
	actors := make([]*actor.Actor, n)
	for i := range actors {
		// Stopped vehicles straddling the ego's lane directly ahead, so every
		// one of them blocks escape routes and the counterfactuals matter.
		actors[i] = actor.NewVehicle(i, vehicle.State{Pos: ego(12+float64(6*i), 1.75, 0).Pos})
	}
	return actors
}

// TestEvaluateTracedMatchesEvaluate: tracing must observe, never perturb,
// on both the single-actor and the shared engine.
func TestEvaluateTracedMatchesEvaluate(t *testing.T) {
	for _, n := range []int{1, 3} {
		e := MustNewEvaluator(reach.DefaultConfig())
		actors := blockingActors(n)
		trajs := groundTruth(e, actors)
		want := e.Evaluate(testRoad(), ego(0, 1.75, 10), actors, trajs)
		ctx := trace.NewContext(context.Background(), trace.NewRecorder(trace.NewID()))
		got, _ := e.EvaluateTraced(ctx, testRoad(), ego(0, 1.75, 10), actors, trajs)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%d actors: traced result diverged:\nwant %+v\ngot  %+v", n, want, got)
		}
	}
}

func TestProvenanceEngines(t *testing.T) {
	ctxOf := func() (context.Context, *trace.Recorder) {
		rec := trace.NewRecorder(trace.NewID())
		return trace.NewContext(context.Background(), rec), rec
	}
	spanNames := func(rec *trace.Recorder) map[string]bool {
		names := map[string]bool{}
		for _, sp := range rec.Spans() {
			names[sp.Name] = true
		}
		return names
	}

	single := MustNewEvaluator(reach.DefaultConfig())
	shared := MustNewEvaluator(reach.DefaultConfig())
	actors := blockingActors(3)
	trajs := groundTruth(shared, actors)

	ctx, rec := ctxOf()
	_, prov := single.EvaluateTraced(ctx, testRoad(), ego(0, 1.75, 10), actors[:1], trajs[:1])
	if prov.Engine != EngineSingle {
		t.Errorf("single-actor engine = %q", prov.Engine)
	}
	if prov.CacheState != CacheMiss {
		t.Errorf("first single-actor eval cache state = %q, want %q", prov.CacheState, CacheMiss)
	}
	if names := spanNames(rec); !names["reach.empty_tube"] || !names["reach.base_tube"] {
		t.Errorf("single-actor spans = %v", names)
	}

	ctx, rec = ctxOf()
	_, prov = shared.EvaluateTraced(ctx, testRoad(), ego(0, 1.75, 10), actors, trajs)
	if prov.Engine != EngineShared {
		t.Errorf("shared engine = %q", prov.Engine)
	}
	if prov.MaskWidth != len(actors) {
		t.Errorf("mask width = %d, want %d", prov.MaskWidth, len(actors))
	}
	if names := spanNames(rec); !names["reach.empty_tube"] || !names["reach.shared_expansion"] {
		t.Errorf("shared spans = %v", names)
	}
	// Second evaluation of the same pose hits the empty-volume cache.
	ctx, _ = ctxOf()
	_, prov = shared.EvaluateTraced(ctx, testRoad(), ego(0, 1.75, 10), actors, trajs)
	if prov.CacheState != CacheHit {
		t.Errorf("repeat cache state = %q, want %q", prov.CacheState, CacheHit)
	}

	ctx, _ = ctxOf()
	_, prov = single.EvaluateTraced(ctx, testRoad(), ego(0, 1.75, 10), nil, nil)
	if prov.Engine != EngineEmpty || prov.CacheState != CacheBypass {
		t.Errorf("empty-scene provenance = %+v", prov)
	}

	// No recorder in context: identical results, no spans, no panic.
	res, prov := shared.EvaluateTraced(context.Background(), testRoad(), ego(0, 1.75, 10), actors, trajs)
	if prov.Engine != EngineShared {
		t.Errorf("untraced ctx engine = %q", prov.Engine)
	}
	if want := shared.Evaluate(testRoad(), ego(0, 1.75, 10), actors, trajs); !reflect.DeepEqual(res, want) {
		t.Error("untraced-ctx result diverged from Evaluate")
	}
}

// Provenance.ElidedActors must agree with the sti.counterfactuals.elided
// counter delta of the same evaluation — the accounting is additive, so a
// path that elides in more than one place (or a rewritten one that elides
// in a different place than before) cannot under-report by overwriting an
// earlier count. Exercised on the scene classes that elide: a single
// blocking actor (the empty-world identity needs no tube), a single-actor
// dead-band certificate (far-away actor, combined snaps to zero), and the
// shared engine's dead-band certificate.
func TestProvenanceElidedMatchesCounter(t *testing.T) {
	telemetry.Enable()
	t.Cleanup(telemetry.Disable)
	e := MustNewEvaluator(reach.DefaultConfig())
	// Dead-band scene: far-away actors nudge the base tube by less than the
	// dead band, so the certificate elides all.
	farOnly := []*actor.Actor{
		actor.NewVehicle(95, vehicle.State{Pos: ego(420, 1.75, 0).Pos}),
		actor.NewVehicle(96, vehicle.State{Pos: ego(470, 5.25, 0).Pos}),
	}
	cases := []struct {
		name   string
		actors []*actor.Actor
	}{
		{"single-identity", blockingActors(1)},
		{"single-deadband", farOnly[:1]},
		{"shared-deadband", farOnly},
		{"shared-dense", blockingActors(3)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			trajs := groundTruth(e, tc.actors)
			before := telElided.Value()
			_, prov := e.evaluate(nil, testRoad(), ego(0, 1.75, 10), tc.actors, trajs, nil)
			delta := telElided.Value() - before
			if int64(prov.ElidedActors) != delta {
				t.Errorf("Provenance.ElidedActors = %d, counter delta = %d", prov.ElidedActors, delta)
			}
		})
	}
}

// The shared engine reports its mask geometry: width = every actor in the
// scene, words = ceil((1+width)/64).
func TestProvenanceMaskWords(t *testing.T) {
	e := MustNewEvaluator(reach.DefaultConfig())
	actors := blockingActors(3)
	trajs := groundTruth(e, actors)
	_, prov := e.evaluate(nil, testRoad(), ego(0, 1.75, 10), actors, trajs, nil)
	if prov.MaskWidth != 3 || prov.MaskWords != 1 {
		t.Errorf("mask width/words = %d/%d, want 3/1", prov.MaskWidth, prov.MaskWords)
	}
	_, prov = e.evaluate(nil, testRoad(), ego(0, 1.75, 10), actors[:1], trajs[:1], nil)
	if prov.MaskWidth != 0 || prov.MaskWords != 0 {
		t.Errorf("single-actor mask width/words = %d/%d, want 0/0", prov.MaskWidth, prov.MaskWords)
	}
}
