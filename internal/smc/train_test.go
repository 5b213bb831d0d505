package smc

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/agent"
	"repro/internal/rl"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/sti"
)

// trainTestConfig shrinks the learner and ε schedule so training exercises
// replay warm-up, Adam updates and target syncs within a few short episodes.
func trainTestConfig(seed int64) Config {
	cfg := DefaultConfig()
	cfg.DDQN.Seed = seed
	cfg.DDQN.Hidden = []int{24}
	cfg.DDQN.WarmUp = 60
	cfg.DDQN.BatchSize = 16
	cfg.DDQN.TargetSync = 40
	cfg.DDQN.ReplayCap = 600
	cfg.DDQN.EpsDecaySteps = 300
	return cfg
}

// trainTestScenarios returns a small seeded scenario set with episodes
// clipped short enough for the race detector.
func trainTestScenarios(t *testing.T, n int) []scenario.Scenario {
	t.Helper()
	scns := scenario.Generate(scenario.GhostCutIn, n, 7)
	for i := range scns {
		scns[i].MaxSteps = 80
	}
	return scns
}

func lbcFactory() sim.Driver { return agent.NewLBC(agent.DefaultLBCConfig()) }

// policyBytes serialises a trained controller's policy network for bitwise
// comparison between runs.
func policyBytes(t *testing.T, ctrl *SMC) []byte {
	t.Helper()
	raw, err := json.Marshal(ctrl.policy)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// oracleTrain replays the pre-pipeline serial trainer verbatim: a plain
// evaluator, the learner consulted inline at every decision,
// no hooks, no checkpoints. It is the frozen reference the refactored
// serial engine must reproduce bitwise.
func oracleTrain(t *testing.T, scns []scenario.Scenario, cfg Config, episodes int) []float64 {
	t.Helper()
	learner, err := rl.NewDDQN(cfg.FeatureDim(), len(cfg.Actions), cfg.DDQN)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := sti.NewEvaluator(cfg.Reach)
	if err != nil {
		t.Fatal(err)
	}
	rw := &episodeRunner{cfg: cfg} // reward math only
	driver := lbcFactory()
	var rewards []float64
	for ep := 0; ep < episodes; ep++ {
		scn := scns[ep%len(scns)]
		w, err := scn.Build()
		if err != nil {
			t.Fatal(err)
		}
		driver.Reset()
		for _, b := range w.Behaviors {
			b.Reset()
		}
		maxSteps := scn.MaxSteps
		if maxSteps <= 0 {
			maxSteps = 400
		}
		obs := w.Observe()
		state := featurize(obs, eval.CombinedWithPrediction(obs.Map, obs.Ego, nearestActors(obs, cfg)), cfg)
		epReward := 0.0
		for step := 0; step < maxSteps; step += cfg.DecisionStride {
			aIdx := learner.SelectAction(state, true)
			action := cfg.Actions[aIdx]
			collided := false
			before := obs.Ego.Pos
			for k := 0; k < cfg.DecisionStride; k++ {
				stepObs := w.Observe()
				control := applyAction(action, stepObs, driver.Act(stepObs))
				if ev := w.Advance(control); ev.EgoCollision {
					collided = true
					break
				}
			}
			next := w.Observe()
			progress := next.Ego.Pos.Sub(before).Dot(goalDir(next))
			stiNext := eval.CombinedWithPrediction(next.Map, next.Ego, nearestActors(next, cfg))
			reward := rw.reward(action, stiNext, progress, next)
			if collided {
				stiNext = 1
				reward = rw.reward(action, 1, 0, next)
			}
			done := collided || next.Ego.Pos.X >= w.Goal.X || step+cfg.DecisionStride >= maxSteps
			nextState := featurize(next, stiNext, cfg)
			learner.Observe(rl.Transition{State: state, Action: aIdx, Reward: reward, Next: nextState, Done: done})
			epReward += reward
			state = nextState
			obs = next
			if done {
				break
			}
		}
		rewards = append(rewards, epReward)
	}
	return rewards
}

// The refactored serial engine (EpisodeWorkers:1, hybrid shared-expansion
// evaluator, hook-based episode runner) must reproduce the pre-change
// trainer bitwise on a seeded multi-scenario run: same learner call
// sequence, same STI values, same rewards.
func TestTrainSerialMatchesPreChangeOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("training run; skipped in -short")
	}
	const episodes = 8
	scns := trainTestScenarios(t, 2)
	cfg := trainTestConfig(21)

	want := oracleTrain(t, scns, cfg, episodes)
	_, res, err := Train(scns, lbcFactory, cfg, episodes)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.EpisodeRewards) != len(want) {
		t.Fatalf("episode count %d, oracle ran %d", len(res.EpisodeRewards), len(want))
	}
	for i := range want {
		if res.EpisodeRewards[i] != want[i] {
			t.Fatalf("episode %d reward %v, oracle %v (serial engine diverged from pre-change trainer)", i, res.EpisodeRewards[i], want[i])
		}
	}
}

// The pipelined engine must be run-to-run deterministic: two EpisodeWorkers:4
// runs with the same seed produce identical rewards, ε and policy weights
// regardless of goroutine scheduling. Run under -race in CI.
func TestTrainParallelRunToRunDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("training run; skipped in -short")
	}
	const episodes = 10
	scns := trainTestScenarios(t, 2)
	cfg := trainTestConfig(33)
	cfg.EpisodeWorkers = 4

	ctrl1, res1, err := Train(scns, lbcFactory, cfg, episodes)
	if err != nil {
		t.Fatal(err)
	}
	ctrl2, res2, err := Train(scns, lbcFactory, cfg, episodes)
	if err != nil {
		t.Fatal(err)
	}
	if res1.FinalEpsilon != res2.FinalEpsilon {
		t.Errorf("final epsilon diverged between runs: %v != %v", res1.FinalEpsilon, res2.FinalEpsilon)
	}
	if res1.Collisions != res2.Collisions {
		t.Errorf("collision count diverged between runs: %d != %d", res1.Collisions, res2.Collisions)
	}
	for i := range res1.EpisodeRewards {
		if res1.EpisodeRewards[i] != res2.EpisodeRewards[i] {
			t.Fatalf("episode %d reward diverged between runs: %v != %v", i, res1.EpisodeRewards[i], res2.EpisodeRewards[i])
		}
	}
	if !bytes.Equal(policyBytes(t, ctrl1), policyBytes(t, ctrl2)) {
		t.Error("trained policy weights diverged between identical parallel runs")
	}
}

// resumeMatchesUninterrupted trains to `prefix` episodes (writing the
// end-of-run checkpoint), resumes to the full budget, and requires the
// stitched run to match a one-shot run bitwise.
func resumeMatchesUninterrupted(t *testing.T, workers int) {
	const prefix, episodes = 4, 10
	scns := trainTestScenarios(t, 2)
	cfg := trainTestConfig(44)
	cfg.EpisodeWorkers = workers
	ck := filepath.Join(t.TempDir(), "ck.json")

	ctrlFull, resFull, err := Train(scns, lbcFactory, cfg, episodes)
	if err != nil {
		t.Fatal(err)
	}

	if _, _, err := TrainContext(context.Background(), scns, lbcFactory, cfg, prefix,
		TrainOptions{CheckpointPath: ck}); err != nil {
		t.Fatal(err)
	}
	ctrlRes, resRes, err := TrainContext(context.Background(), scns, lbcFactory, cfg, episodes,
		TrainOptions{CheckpointPath: ck, Resume: true})
	if err != nil {
		t.Fatal(err)
	}

	if resRes.StartEpisode != prefix {
		t.Fatalf("resumed run started at episode %d, want %d", resRes.StartEpisode, prefix)
	}
	if resRes.Episodes != episodes || resFull.Episodes != episodes {
		t.Fatalf("episode counts: resumed %d, uninterrupted %d, want %d", resRes.Episodes, resFull.Episodes, episodes)
	}
	if resRes.FinalEpsilon != resFull.FinalEpsilon {
		t.Errorf("final epsilon: resumed %v, uninterrupted %v (ε schedule did not continue)", resRes.FinalEpsilon, resFull.FinalEpsilon)
	}
	for i := range resFull.EpisodeRewards {
		if resRes.EpisodeRewards[i] != resFull.EpisodeRewards[i] {
			t.Fatalf("episode %d reward: resumed %v, uninterrupted %v", i, resRes.EpisodeRewards[i], resFull.EpisodeRewards[i])
		}
	}
	if !bytes.Equal(policyBytes(t, ctrlRes), policyBytes(t, ctrlFull)) {
		t.Error("resumed policy weights differ from the uninterrupted run")
	}
}

func TestTrainResumeMatchesUninterruptedSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("training run; skipped in -short")
	}
	resumeMatchesUninterrupted(t, 1)
}

func TestTrainResumeMatchesUninterruptedParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("training run; skipped in -short")
	}
	resumeMatchesUninterrupted(t, 3)
}

// cancellingDriver cancels the run's context at the start of episode
// `after` (counting driver resets), simulating a SIGINT mid-run.
type cancellingDriver struct {
	sim.Driver
	cancel context.CancelFunc
	resets int
	after  int
}

func (d *cancellingDriver) Reset() {
	d.resets++
	if d.resets > d.after {
		d.cancel()
	}
	d.Driver.Reset()
}

// Cancellation must return a partial result with Interrupted set, write a
// final checkpoint, and resuming from it must complete the run bitwise
// identically to one that was never interrupted.
func TestTrainCancellationCheckpointsAndResumes(t *testing.T) {
	if testing.Short() {
		t.Skip("training run; skipped in -short")
	}
	const episodes = 10
	scns := trainTestScenarios(t, 2)
	cfg := trainTestConfig(55)
	ck := filepath.Join(t.TempDir(), "ck.json")

	ctrlFull, resFull, err := Train(scns, lbcFactory, cfg, episodes)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	mk := func() sim.Driver { return &cancellingDriver{Driver: lbcFactory(), cancel: cancel, after: 3} }
	_, resCut, err := TrainContext(ctx, scns, mk, cfg, episodes, TrainOptions{CheckpointPath: ck})
	if err != nil {
		t.Fatal(err)
	}
	if !resCut.Interrupted {
		t.Fatal("cancelled run did not report Interrupted")
	}
	if resCut.Episodes == 0 || resCut.Episodes >= episodes {
		t.Fatalf("cancelled run completed %d episodes, want a strict partial run", resCut.Episodes)
	}
	if _, err := os.Stat(ck); err != nil {
		t.Fatalf("no final checkpoint after cancellation: %v", err)
	}

	ctrlRes, resRes, err := TrainContext(context.Background(), scns, lbcFactory, cfg, episodes,
		TrainOptions{CheckpointPath: ck, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if resRes.StartEpisode != resCut.Episodes {
		t.Fatalf("resume started at %d, checkpoint was after %d episodes", resRes.StartEpisode, resCut.Episodes)
	}
	for i := range resFull.EpisodeRewards {
		if resRes.EpisodeRewards[i] != resFull.EpisodeRewards[i] {
			t.Fatalf("episode %d reward after interrupt+resume %v, uninterrupted %v", i, resRes.EpisodeRewards[i], resFull.EpisodeRewards[i])
		}
	}
	if !bytes.Equal(policyBytes(t, ctrlRes), policyBytes(t, ctrlFull)) {
		t.Error("policy after interrupt+resume differs from the uninterrupted run")
	}
}

// A truncated checkpoint (torn write, partial copy) must fail LoadCheckpoint
// and a resume against it must fail rather than silently restart.
func TestTruncatedCheckpointFailsLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("training run; skipped in -short")
	}
	const episodes = 3
	scns := trainTestScenarios(t, 1)
	cfg := trainTestConfig(66)
	ck := filepath.Join(t.TempDir(), "ck.json")

	if _, _, err := TrainContext(context.Background(), scns, lbcFactory, cfg, episodes,
		TrainOptions{CheckpointPath: ck}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ck, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(ck); err == nil {
		t.Error("LoadCheckpoint accepted a truncated checkpoint")
	}
	if _, _, err := TrainContext(context.Background(), scns, lbcFactory, cfg, episodes,
		TrainOptions{CheckpointPath: ck, Resume: true}); err == nil {
		t.Error("resume from a truncated checkpoint did not fail")
	}
}

// A truncated controller file must fail Load cleanly — Save's atomic
// temp+rename means a crash can no longer leave one behind, and a partial
// copy must not load as a half-initialised policy.
func TestTruncatedControllerFailsLoad(t *testing.T) {
	cfg := trainTestConfig(77)
	learner, err := rl.NewDDQN(cfg.FeatureDim(), len(cfg.Actions), cfg.DDQN)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := New(cfg, learner.Policy())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "smc.json")
	if err := ctrl.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path, cfg); err != nil {
		t.Fatalf("intact controller failed to load: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path, cfg); err == nil {
		t.Error("Load accepted a truncated controller file")
	}
}

// Resume must refuse a checkpoint taken under a different seed or worker
// count instead of continuing a subtly different run.
func TestResumeRejectsMismatchedConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("training run; skipped in -short")
	}
	const episodes = 3
	scns := trainTestScenarios(t, 1)
	cfg := trainTestConfig(88)
	ck := filepath.Join(t.TempDir(), "ck.json")
	if _, _, err := TrainContext(context.Background(), scns, lbcFactory, cfg, episodes,
		TrainOptions{CheckpointPath: ck}); err != nil {
		t.Fatal(err)
	}

	badSeed := cfg
	badSeed.DDQN.Seed = 89
	if _, _, err := TrainContext(context.Background(), scns, lbcFactory, badSeed, episodes,
		TrainOptions{CheckpointPath: ck, Resume: true}); err == nil {
		t.Error("resume accepted a checkpoint from a different seed")
	}
	badWorkers := cfg
	badWorkers.EpisodeWorkers = 4
	if _, _, err := TrainContext(context.Background(), scns, lbcFactory, badWorkers, episodes,
		TrainOptions{CheckpointPath: ck, Resume: true}); err == nil {
		t.Error("resume accepted a checkpoint from a different worker count")
	}
}
