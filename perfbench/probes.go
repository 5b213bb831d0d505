package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/actor"
	"repro/internal/agent"
	"repro/internal/reach"
	"repro/internal/roadmap"
	"repro/internal/scene"
	"repro/internal/sim"
	"repro/internal/sti"
	"repro/internal/vehicle"
)

// The library probes time the public entry points of each layer on the
// workloads' own inputs, with the library defaults (no engine options set):
// the wire codec and prediction on the exact bytes sent, STI evaluation per
// corpus class, the warm path over the session ticks, and the combined-STI
// and single-tube path on the replayed training observations. The default
// evaluator scores on the per-actor engine and has no warm start, so
// sti.evaluate_ms.* and sti.evaluate_warm_ms time what a library caller
// gets today; the server's shared and warm engines are timed directly by
// reach.shared_ms and reach.warm_ms.

// probeBudget bounds each probe family's timed passes.
const probeBudget = 400 * time.Millisecond

// repeat runs pass until probeBudget is spent, at least once.
func repeat(pass func()) {
	for start := time.Now(); ; {
		pass()
		if time.Since(start) >= probeBudget {
			return
		}
	}
}

// mallocsPerOp counts heap allocations over one pass of n operations.
func mallocsPerOp(n int, pass func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	pass()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(max(n, 1))
}

// codecProbes times scene.Decode, Materialize and actor.PredictAll on the
// given request bodies.
func codecProbes(name string, bodies [][]byte, rep *report) error {
	cfg := reach.DefaultConfig()
	var dec, mat, pred samples
	var failed error
	repeat(func() {
		for _, b := range bodies {
			t0 := time.Now()
			sc, err := scene.Decode(b)
			t1 := time.Now()
			_, _, actors, _, _, merr := sc.Materialize()
			t2 := time.Now()
			actor.PredictAll(actors, cfg.NumSlices(), cfg.SliceDt)
			t3 := time.Now()
			if err != nil || merr != nil {
				failed = fmt.Errorf("decode %v, materialize %v", err, merr)
			}
			dec = append(dec, us(t1.Sub(t0)))
			mat = append(mat, us(t2.Sub(t1)))
			pred = append(pred, us(t3.Sub(t2)))
		}
	})
	rep.set("scene.decode_us."+name, dec.median(), "us")
	rep.set("scene.materialize_us."+name, mat.median(), "us")
	rep.set("actor.predict_us."+name, pred.median(), "us")
	return failed
}

// decoded is a materialized input with predicted trajectories.
type decoded struct {
	m   roadmap.Map
	ego vehicle.State
	all []*actor.Actor
	tr  []actor.Trajectory
	obs *reach.Obstacles
}

func materialize(sc scene.Scene, cfg reach.Config) (decoded, error) {
	m, ego, actors, _, _, err := sc.Materialize()
	if err != nil {
		return decoded{}, err
	}
	trajs := actor.PredictAll(actors, cfg.NumSlices(), cfg.SliceDt)
	return decoded{m: m, ego: ego, all: actors, tr: trajs, obs: reach.BuildObstacles(actors, trajs, cfg)}, nil
}

// corpusProbes runs the evaluation probes on the scenes of the run's first
// batches, in the mix the clients send.
func corpusProbes(w *corpusWorkload, rep *report) error {
	cfg := reach.DefaultConfig()
	var bodies [][]byte
	byClass := map[string][]decoded{}
	var multi []decoded
	for i := int64(0); i < 16; i++ {
		for _, k := range w.batch(i) {
			cs := w.scenes[k]
			bodies = append(bodies, cs.body)
			d, err := materialize(cs.sc, cfg)
			if err != nil {
				return err
			}
			byClass[cs.class] = append(byClass[cs.class], d)
			if len(d.all) > 1 {
				multi = append(multi, d)
			}
		}
	}
	if err := codecProbes("corpus_score", bodies, rep); err != nil {
		return err
	}
	elided, actors := 0, 0
	for _, class := range []string{"single", "multi", "crowd"} {
		ev, err := sti.NewEvaluator(cfg)
		if err != nil {
			return err
		}
		var lat samples
		first := true
		repeat(func() {
			for _, d := range byClass[class] {
				t0 := time.Now()
				_, prov := ev.EvaluateTraced(context.Background(), d.m, d.ego, d.all, d.tr)
				lat = append(lat, ms(time.Since(t0)))
				if first {
					elided += prov.ElidedActors
					actors += len(d.all)
				}
			}
			first = false
		})
		rep.set("sti.evaluate_ms."+class, lat.median(), "ms")
	}
	rep.set("sti.elided_ratio.corpus_score", float64(elided)/float64(max(actors, 1)), "ratio")

	scr := reach.NewScratch()
	var lat samples
	states := 0
	pass := func() {
		for _, d := range multi {
			t0 := time.Now()
			sh := reach.ComputeCounterfactuals(d.m, d.obs, d.ego, cfg, scr)
			lat = append(lat, ms(time.Since(t0)))
			states += sh.States
		}
	}
	allocs := mallocsPerOp(len(multi), pass)
	rep.set("reach.states_per_op.shared", float64(states)/float64(max(len(multi), 1)), "count")
	rep.set("reach.allocs_per_op.shared", allocs, "count")
	lat = nil
	repeat(pass)
	rep.set("reach.shared_ms", lat.median(), "ms")
	return nil
}

// sessionProbes runs the warm-path probes over every session trace, tick by
// tick in order, each pass starting from a fresh warm state.
func sessionProbes(w *sessionWorkload, rep *report) error {
	cfg := reach.DefaultConfig()
	var bodies [][]byte
	var traces [][]decoded
	for _, tr := range w.traces {
		var ticks []decoded
		for i, sc := range tr.scenes {
			bodies = append(bodies, tr.bodies[i])
			d, err := materialize(sc, cfg)
			if err != nil {
				return err
			}
			ticks = append(ticks, d)
		}
		traces = append(traces, ticks)
	}
	if err := codecProbes("session_replay", bodies, rep); err != nil {
		return err
	}

	ev, err := sti.NewEvaluator(cfg)
	if err != nil {
		return err
	}
	var lat samples
	elided, actors := 0, 0
	first := true
	repeat(func() {
		for _, ticks := range traces {
			ws := sti.NewWarmState()
			for _, d := range ticks {
				t0 := time.Now()
				_, prov := ev.EvaluateWarm(d.m, d.ego, d.all, d.tr, ws)
				lat = append(lat, ms(time.Since(t0)))
				if first {
					elided += prov.ElidedActors
					actors += len(d.all)
				}
			}
		}
		first = false
	})
	rep.set("sti.evaluate_warm_ms", lat.median(), "ms")
	rep.set("sti.elided_ratio.session_replay", float64(elided)/float64(max(actors, 1)), "ratio")

	scr := reach.NewScratch()
	lat = nil
	states, ticks, hits, reused, invalidated := 0, 0, 0, 0, 0
	pass := func() {
		for _, tr := range traces {
			ws := reach.NewWarmState()
			for _, d := range tr {
				t0 := time.Now()
				sh, st := reach.ComputeCounterfactualsWarm(d.m, d.obs, d.ego, cfg, scr, ws)
				lat = append(lat, ms(time.Since(t0)))
				states += sh.States
				ticks++
				if st.Hit {
					hits++
				}
				reused += st.Reused
				invalidated += st.Invalidated
			}
		}
	}
	allocs := mallocsPerOp(len(bodies), pass)
	rep.set("reach.states_per_op.warm", float64(states)/float64(max(ticks, 1)), "count")
	rep.set("reach.allocs_per_op.warm", allocs, "count")
	rep.set("reach.warm_hit_ratio", float64(hits)/float64(max(ticks, 1)), "ratio")
	rep.set("reach.warm_reuse_ratio", float64(reused)/float64(max(reused+invalidated, 1)), "ratio")
	lat = nil
	repeat(pass)
	rep.set("reach.warm_ms", lat.median(), "ms")
	return nil
}

// trainProbes times the combined-STI fast path and a single reach tube on
// the replayed training observations.
func trainProbes(obs []sim.Observation, rep *report) error {
	if len(obs) == 0 {
		return fmt.Errorf("no training observations to probe")
	}
	cfg := trainConfig(0)
	ev, err := sti.NewEvaluator(cfg.Reach)
	if err != nil {
		return err
	}
	var lat samples
	repeat(func() {
		for _, o := range obs {
			visible := agent.VisibleActors(o, cfg.PerceptionRange)
			t0 := time.Now()
			ev.CombinedWithPrediction(o.Map, o.Ego, visible)
			lat = append(lat, ms(time.Since(t0)))
		}
	})
	rep.set("sti.combined_ms", lat.median(), "ms")

	scr := reach.NewScratch()
	obstacles := make([]*reach.Obstacles, len(obs))
	for i, o := range obs {
		visible := agent.VisibleActors(o, cfg.PerceptionRange)
		obstacles[i] = reach.BuildObstacles(visible, actor.PredictAll(visible, cfg.Reach.NumSlices(), cfg.Reach.SliceDt), cfg.Reach)
	}
	lat = nil
	states := 0
	pass := func() {
		for i, o := range obs {
			t0 := time.Now()
			tube := reach.ComputeScratch(o.Map, obstacles[i].Collide(), o.Ego, cfg.Reach, scr)
			lat = append(lat, ms(time.Since(t0)))
			states += tube.States
		}
	}
	allocs := mallocsPerOp(len(obs), pass)
	rep.set("reach.states_per_op.tube", float64(states)/float64(len(obs)), "count")
	rep.set("reach.allocs_per_op.tube", allocs, "count")
	lat = nil
	repeat(pass)
	rep.set("reach.tube_ms", lat.median(), "ms")
	return nil
}

// libraryProbes runs every probe family.
func libraryProbes(sw *sessionWorkload, cw *corpusWorkload, trainObs []sim.Observation, rep *report) error {
	if err := sessionProbes(sw, rep); err != nil {
		return fmt.Errorf("session probes: %w", err)
	}
	if err := corpusProbes(cw, rep); err != nil {
		return fmt.Errorf("corpus probes: %w", err)
	}
	if err := trainProbes(trainObs, rep); err != nil {
		return fmt.Errorf("training probes: %w", err)
	}
	return nil
}
