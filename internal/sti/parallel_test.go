package sti

import (
	"sync"
	"testing"

	"repro/internal/actor"
	"repro/internal/geom"
	"repro/internal/reach"
	"repro/internal/roadmap"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/vehicle"
)

// parallelScenes returns a mix of straight-road and ring-road scenes with
// several actors each: generated suite instances plus a dense hand-built
// scene, so the differential and concurrency suites exercise both map
// families.
func parallelScenes(t *testing.T) []sim.Observation {
	t.Helper()
	var scenes []sim.Observation
	for _, ty := range []scenario.Typology{scenario.GhostCutIn, scenario.RoundaboutCutIn} {
		for _, s := range scenario.GenerateValid(ty, 2, 7) {
			w, err := s.Build()
			if err != nil {
				t.Fatalf("build %v: %v", ty, err)
			}
			scenes = append(scenes, w.Observe())
		}
	}
	dense := []*actor.Actor{
		actor.NewVehicle(1, vehicle.State{Pos: geom.V(14, 1.75), Speed: 3}),
		actor.NewVehicle(2, vehicle.State{Pos: geom.V(5, 5.25), Speed: 10}),
		actor.NewVehicle(3, vehicle.State{Pos: geom.V(-15, 1.75), Speed: 15}),
		actor.NewVehicle(4, vehicle.State{Pos: geom.V(28, 5.25), Speed: 8}),
		actor.NewVehicle(5, vehicle.State{Pos: geom.V(-8, 5.25), Speed: 12}),
		actor.NewVehicle(6, vehicle.State{Pos: geom.V(40, 1.75), Speed: 5}),
	}
	scenes = append(scenes, sim.Observation{
		Map:    roadmap.MustStraightRoad(2, 3.5, -100, 1000),
		Ego:    ego(0, 1.75, 10),
		Actors: dense,
	})
	return scenes
}

func requireIdentical(t *testing.T, scene int, serial, parallel Result) {
	t.Helper()
	if serial.Combined != parallel.Combined ||
		serial.BaseVolume != parallel.BaseVolume ||
		serial.EmptyVolume != parallel.EmptyVolume {
		t.Errorf("scene %d: scalar fields diverge: serial %+v parallel %+v", scene, serial, parallel)
	}
	if len(serial.PerActor) != len(parallel.PerActor) {
		// Errorf, not Fatalf: this helper also runs on non-test goroutines.
		t.Errorf("scene %d: PerActor length %d vs %d", scene, len(serial.PerActor), len(parallel.PerActor))
		return
	}
	for i := range serial.PerActor {
		if serial.PerActor[i] != parallel.PerActor[i] {
			t.Errorf("scene %d actor %d: STI %v vs %v", scene, i, serial.PerActor[i], parallel.PerActor[i])
		}
		if serial.WithoutVolume[i] != parallel.WithoutVolume[i] {
			t.Errorf("scene %d actor %d: |T^{/i}| %v vs %v", scene, i, serial.WithoutVolume[i], parallel.WithoutVolume[i])
		}
	}
}

// One evaluator shared by concurrent callers (the suite/SMC deployment
// shape) must stay deterministic: every goroutine sees the serial results.
func TestSharedEvaluatorConcurrentUse(t *testing.T) {
	cfg := reach.DefaultConfig()
	serialEval, shared := oracleAndEngine(t)

	scenes := parallelScenes(t)
	trajs := make([][]actor.Trajectory, len(scenes))
	want := make([]Result, len(scenes))
	for i, obs := range scenes {
		trajs[i] = actor.PredictAll(obs.Actors, cfg.NumSlices(), cfg.SliceDt)
		want[i] = serialEval.Evaluate(obs.Map, obs.Ego, obs.Actors, trajs[i])
	}

	const callers = 4
	var wg sync.WaitGroup
	wg.Add(callers)
	for c := 0; c < callers; c++ {
		go func() {
			defer wg.Done()
			for i, obs := range scenes {
				got := shared.Evaluate(obs.Map, obs.Ego, obs.Actors, trajs[i])
				requireIdentical(t, i, want[i], got)
			}
		}()
	}
	wg.Wait()
}
