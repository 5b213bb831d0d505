package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/agent"
	"repro/internal/rl"
	"repro/internal/sim"
	"repro/internal/smc"
)

// traceTrain runs one training process untraced, then replays the
// workload's seeded episodes serially through the public calls the trainer
// makes — World.Advance, the LBC's Act, SMC.Mitigate and DDQN.Observe —
// timing each. The replay's actions come from the untrained controller, not
// the trainer's ε-greedy learner (whose featurisation is internal), so it
// measures what each call costs on these scenarios rather than re-creating
// the identical trajectory. The layer table is per simulator step, against
// the untraced process's CPU per step: with two episode workers, CPU, not
// wall time, is what a serial replay compares with.
func traceTrain(seed int64, phase time.Duration, t *tally, rep *report) ([]sim.Observation, error) {
	deg, _, err := trainDegenerate(seed)
	if err != nil {
		return nil, err
	}
	rep.set("sti.degenerate_inputs.smc_train", float64(deg), "count")
	_, cr, err := trainProcess(seed, true)
	if err != nil {
		return nil, err
	}
	checkProcess(t, fmt.Sprintf("training process (seed %d)", seed), cr, "")
	if cr.Steps == 0 {
		return nil, fmt.Errorf("training process reported no simulator steps")
	}

	cfg := trainConfig(seed)
	scns := trainScenarioSet(seed)
	learner, err := rl.NewDDQN(cfg.FeatureDim(), len(cfg.Actions), cfg.DDQN)
	if err != nil {
		return nil, err
	}
	ctrl, err := smc.New(cfg, learner.Policy())
	if err != nil {
		return nil, err
	}
	drv := agent.NewLBC(agent.DefaultLBCConfig())
	lt := newLayerTable("smc_train", "simulator step")
	lt.untraced = cr.CPUms / float64(cr.Steps)
	lt.note = "untraced = training CPU per step over both episode workers; traced = serial replay wall time per step"
	var advance, act, mitigate, observe samples
	var kept []sim.Observation
	deadline := time.Now().Add(phase)
	for ep := 0; ep < len(scns) || time.Now().Before(deadline); ep++ {
		scn := scns[ep%len(scns)]
		w, err := scn.Build()
		if err != nil {
			return nil, err
		}
		drv.Reset()
		ctrl.Reset()
		var prev []float64
		prevAction := 0
		prevX := w.Observe().Ego.Pos.X
		for step := 0; step < scn.MaxSteps; step++ {
			obs := w.Observe()
			t0 := time.Now()
			ads := drv.Act(obs)
			t1 := time.Now()
			u, _ := ctrl.Mitigate(obs, ads)
			t2 := time.Now()
			ev := w.Advance(u)
			t3 := time.Now()
			act = append(act, us(t1.Sub(t0)))
			advance = append(advance, us(t3.Sub(t2)))
			lt.add("agent.act (LBC Act)", ms(t1.Sub(t0)))
			lt.add("sim.advance (World.Advance)", ms(t3.Sub(t2)))
			lt.add("smc.mitigate (SMC.Mitigate)", ms(t2.Sub(t1)))
			var learn time.Duration
			if step%cfg.DecisionStride == 0 {
				mitigate = append(mitigate, ms(t2.Sub(t1)))
				if len(kept) < 400 && ep%2 == 0 {
					snap := obs
					snap.Actors = nil
					for _, a := range obs.Actors {
						snap.Actors = append(snap.Actors, a.Clone())
					}
					kept = append(kept, snap)
				}
				state := replayFeatures(obs, cfg)
				done := ev.EgoCollision || obs.Ego.Pos.X >= w.Goal.X
				if prev != nil {
					reward := (obs.Ego.Pos.X - prevX) / 10
					t4 := time.Now()
					learner.Observe(rl.Transition{State: prev, Action: prevAction, Reward: reward, Next: state, Done: done})
					learn = time.Since(t4)
					observe = append(observe, us(learn))
					lt.add("rl.observe (DDQN.Observe)", ms(learn))
				}
				prev, prevAction, prevX = state, actionIndex(ctrl.LastAction(), cfg), obs.Ego.Pos.X
			}
			lt.add("replay loop (features, bookkeeping)", ms(time.Since(t0)-t3.Sub(t0)-learn))
			lt.ops++
			if ev.EgoCollision || w.Observe().Ego.Pos.X >= w.Goal.X {
				break
			}
		}
	}
	res, over := lt.print()
	rep.set("sim.advance_us", advance.median(), "us")
	rep.set("agent.act_us", act.median(), "us")
	rep.set("smc.mitigate_ms", mitigate.median(), "ms")
	rep.set("rl.observe_us", observe.median(), "us")
	rep.set("layers.residual_ms.smc_train", res, "ms")
	rep.set("trace.overhead_ratio.smc_train", over, "ratio")
	return kept, nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// actionIndex maps a controller action back to its index in the action set.
func actionIndex(a smc.Action, cfg smc.Config) int {
	for i, x := range cfg.Actions {
		if x == a {
			return i
		}
	}
	return 0
}

// replayFeatures is a state vector of the learner's input width built from
// public observation fields: ego kinematics, then the nearest actors'
// relative placement. The learner's cost does not depend on the values.
func replayFeatures(obs sim.Observation, cfg smc.Config) []float64 {
	f := make([]float64, cfg.FeatureDim())
	f[0], f[1], f[2], f[3] = obs.Ego.Speed/30, obs.Ego.Pos.Y/10, math.Sin(obs.Ego.Heading), math.Cos(obs.Ego.Heading)
	k := 4
	for _, a := range agent.VisibleActors(obs, cfg.PerceptionRange) {
		if k+5 > len(f) {
			break
		}
		d := a.State.Pos.Sub(obs.Ego.Pos)
		f[k], f[k+1], f[k+2], f[k+3], f[k+4] = d.X/60, d.Y/10, (a.State.Speed-obs.Ego.Speed)/30, math.Sin(a.State.Heading), 1
		k += 5
	}
	return f
}
