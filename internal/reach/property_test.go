package reach

import (
	"math/rand"
	"testing"

	"repro/internal/actor"
	"repro/internal/geom"
	"repro/internal/roadmap"
	"repro/internal/scene"
	"repro/internal/vehicle"
)

// Adding obstacles must never (meaningfully) grow the reach-tube: the tube
// with obstacles is bounded by the empty-world tube, and removing one actor
// from a scene is bounded by removing all. ε-dedup makes the computation
// only approximately monotone, so the properties carry a small tolerance.
func TestTubeMonotoneUnderObstacles(t *testing.T) {
	const tolerance = 1.05
	rng := rand.New(rand.NewSource(99))
	cfg := DefaultConfig()
	road := testRoad()
	for iter := 0; iter < 40; iter++ {
		ego := vehicle.State{
			Pos:   geom.V(0, 1.0+rng.Float64()*5),
			Speed: rng.Float64() * 20,
		}
		n := 1 + rng.Intn(4)
		actors := make([]*actor.Actor, n)
		for i := range actors {
			actors[i] = actor.NewVehicle(i+1, vehicle.State{
				Pos:     geom.V(-20+rng.Float64()*60, 0.8+rng.Float64()*5.4),
				Speed:   rng.Float64() * 15,
				Heading: (rng.Float64() - 0.5) * 0.4,
			})
		}
		trajs := actor.PredictAll(actors, cfg.NumSlices(), cfg.SliceDt)
		obs := BuildObstacles(actors, trajs, cfg)

		empty := Compute(road, nil, ego, cfg)
		all := Compute(road, obs.Collide(), ego, cfg)
		if all.Volume > empty.Volume*tolerance {
			t.Fatalf("iter %d: tube with obstacles (%v) exceeds empty tube (%v)",
				iter, all.Volume, empty.Volume)
		}
		for i := range actors {
			without := Compute(road, obs.CollideWithout(i), ego, cfg)
			if without.Volume > empty.Volume*tolerance {
				t.Fatalf("iter %d: tube without actor %d (%v) exceeds empty tube (%v)",
					iter, i, without.Volume, empty.Volume)
			}
			if all.Volume > without.Volume*tolerance+cfg.CellSize*cfg.CellSize {
				t.Fatalf("iter %d: full-scene tube (%v) exceeds counterfactual without actor %d (%v)",
					iter, all.Volume, i, without.Volume)
			}
		}
	}
}

// The tube must be invariant under translation along the road.
func TestTubeTranslationInvariance(t *testing.T) {
	cfg := DefaultConfig()
	road := testRoad()
	a := Compute(road, nil, egoState(0, 1.75, 10), cfg)
	b := Compute(road, nil, egoState(100, 1.75, 10), cfg)
	// Occupancy-grid alignment causes at most a minor difference.
	if diff := a.Volume - b.Volume; diff > 5 || diff < -5 {
		t.Errorf("translation changed volume: %v vs %v", a.Volume, b.Volume)
	}
	// Translated to the largest coordinate a scene may carry, the dedup and
	// cell indices must still be exact.
	far := roadmap.MustStraightRoad(2, 3.5, scene.MaxCoord-50, scene.MaxCoord+500)
	if c := Compute(far, nil, egoState(scene.MaxCoord, 1.75, 10), cfg); a.Volume-c.Volume > 5 || c.Volume-a.Volume > 5 {
		t.Errorf("translation to x = %g changed volume: %v vs %v", scene.MaxCoord, a.Volume, c.Volume)
	}
}

// Mirroring the scene across the road's centre must mirror the tube.
func TestTubeMirrorSymmetry(t *testing.T) {
	cfg := DefaultConfig()
	road := testRoad() // width 7: mirror y' = 7 - y
	blocker := actor.NewVehicle(1, vehicle.State{Pos: geom.V(15, 1.75)})
	trajs := actor.PredictAll([]*actor.Actor{blocker}, cfg.NumSlices(), cfg.SliceDt)
	obs := BuildObstacles([]*actor.Actor{blocker}, trajs, cfg)
	top := Compute(road, obs.Collide(), egoState(0, 1.75, 10), cfg)

	mirrored := actor.NewVehicle(1, vehicle.State{Pos: geom.V(15, 7-1.75)})
	trajs2 := actor.PredictAll([]*actor.Actor{mirrored}, cfg.NumSlices(), cfg.SliceDt)
	obs2 := BuildObstacles([]*actor.Actor{mirrored}, trajs2, cfg)
	bottom := Compute(road, obs2.Collide(), egoState(0, 7-1.75, 10), cfg)

	if diff := top.Volume - bottom.Volume; diff > 8 || diff < -8 {
		t.Errorf("mirror symmetry violated: %v vs %v", top.Volume, bottom.Volume)
	}
}
