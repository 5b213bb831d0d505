package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/agent"
	"repro/internal/rl"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/smc"
	"repro/internal/sti"
	"repro/internal/telemetry"
	"repro/internal/vehicle"
)

// The smc_train workload: each system process trains the SMC for a fixed
// budget of trainEpisodes episodes with two episode workers over the
// ghost cut-in training corpus, trainScenarios instances generated once
// from corpusSeed. The workload seed orders the corpus (episode i runs
// scenario i mod trainScenarios of the seeded order) and seeds the learner.
// Two workers are fixed, not GOMAXPROCS, so every run is a pure function of
// the seed and the policy digest repeats exactly. The corpus itself does
// not move with the seed: instances differ several-fold in episode length,
// and a per-seed draw of a few of them would change the work per episode
// from seed to seed.
const (
	trainScenarios = 16
	trainEpisodes  = 32
	trainWorkers   = 2
	corpusSeed     = 2024
	// setupOnlyProcesses are started per run only to time set-up.
	setupOnlyProcesses = 6
)

// trainConfig is the SMC configuration every process trains with.
func trainConfig(seed int64) smc.Config {
	cfg := smc.DefaultConfig()
	cfg.DDQN.Seed = seed
	cfg.DDQN.EpsDecaySteps = trainEpisodes * 100
	cfg.EpisodeWorkers = trainWorkers
	return cfg
}

// trainScenarioSet is the training corpus in the seed's order.
func trainScenarioSet(seed int64) []scenario.Scenario {
	scns := scenario.GenerateValid(scenario.GhostCutIn, trainScenarios, corpusSeed)
	rand.New(rand.NewSource(seed)).Shuffle(len(scns), func(i, j int) { scns[i], scns[j] = scns[j], scns[i] })
	return scns
}

func lbcDriver() sim.Driver { return agent.NewLBC(agent.DefaultLBCConfig()) }

// probeObservations are the fixed states on which a saved controller must
// act exactly like the trained one: each training scenario driven by the
// baseline ADS alone, observed every 25 steps.
func probeObservations(scns []scenario.Scenario) ([]sim.Observation, error) {
	var out []sim.Observation
	for _, s := range scns {
		w, err := s.Build()
		if err != nil {
			return nil, err
		}
		d := lbcDriver()
		d.Reset()
		for step := 0; step < 100; step++ {
			obs := w.Observe()
			if step%25 == 0 {
				snap := obs
				snap.Actors = nil
				for _, a := range obs.Actors {
					snap.Actors = append(snap.Actors, a.Clone())
				}
				out = append(out, snap)
			}
			if ev := w.Advance(d.Act(obs)); ev.EgoCollision {
				break
			}
		}
	}
	return out, nil
}

// childReport is what one training process reports on its last line.
type childReport struct {
	Episodes     int     `json:"episodes"`
	TrainSeconds float64 `json:"train_seconds"`
	CPUms        float64 `json:"cpu_ms"`
	PeakRSSMiB   float64 `json:"peak_rss_mib"`
	Digest       string  `json:"digest"`
	Steps        int     `json:"steps"` // simulator steps over all episodes
	// EpisodeSeconds and EpisodeSteps are each episode's wall time and
	// simulator steps.
	EpisodeSeconds []float64 `json:"episode_seconds"`
	EpisodeSteps   []int     `json:"episode_steps"`
	Problems       []string  `json:"problems,omitempty"`
	// BaselineCrashes counts training scenarios the baseline ADS crashes in.
	BaselineCrashes int `json:"baseline_crashes"`
}

// runTrainChild is the system process: set-up (scenario generation and
// validation, smc.New, one decision per training scenario), then "ready";
// then, if the next line of in is "go", the timed training and its output
// checks. Any other answer ends the process after set-up.
func runTrainChild(seed int64, episodes int, in io.Reader, out io.Writer) error {
	cfg := trainConfig(seed)
	scns := trainScenarioSet(seed)
	if len(scns) == 0 {
		return fmt.Errorf("no valid training scenarios")
	}
	learner, err := rl.NewDDQN(cfg.FeatureDim(), len(cfg.Actions), cfg.DDQN)
	if err != nil {
		return err
	}
	// Validation as the training CLI does it: a crash scan of the baseline
	// ADS on every instance. Then one decision of the initial controller on
	// every instance's first observation, so the evaluator is warm.
	crashes := 0
	for _, s := range scns {
		w, err := s.Build()
		if err != nil {
			return err
		}
		if sim.Run(w, lbcDriver(), nil, sim.RunConfig{MaxSteps: s.MaxSteps}).Collision {
			crashes++
		}
	}
	initial, err := smc.New(cfg, learner.Policy())
	if err != nil {
		return err
	}
	for _, s := range scns {
		w, err := s.Build()
		if err != nil {
			return err
		}
		initial.CloneForRun().Mitigate(w.Observe(), vehicle.Control{})
	}
	fmt.Fprintln(out, "ready")
	if line, _ := bufio.NewReader(in).ReadString('\n'); line != "go\n" {
		return nil
	}

	pid := os.Getpid()
	cpu0, err := procCPUms(pid)
	if err != nil {
		return err
	}
	var journal bytes.Buffer
	j := telemetry.NewJournal(&journal)
	telemetry.SetJournal(j)
	t0 := time.Now()
	ctrl, res, err := smc.Train(scns, lbcDriver, cfg, episodes)
	trainSecs := time.Since(t0).Seconds()
	telemetry.SetJournal(nil)
	if err != nil {
		return err
	}
	cpu1, err := procCPUms(pid)
	if err != nil {
		return err
	}

	rep := childReport{Episodes: res.Episodes, TrainSeconds: trainSecs, CPUms: cpu1 - cpu0, BaselineCrashes: crashes}
	rep.Problems, rep.EpisodeSeconds, rep.EpisodeSteps = checkTraining(res, j, &journal, episodes)
	for _, n := range rep.EpisodeSteps {
		rep.Steps += n
	}
	path := filepath.Join(tmpDir(), fmt.Sprintf("smc-%d.json", pid))
	defer os.Remove(path)
	if err := ctrl.Save(path); err != nil {
		return err
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	rep.Digest = fmt.Sprintf("%x", sha256.Sum256(raw))
	loaded, err := smc.Load(path, cfg)
	if err != nil {
		rep.Problems = append(rep.Problems, fmt.Sprintf("load saved controller: %v", err))
	} else if p := sameActions(ctrl, loaded, scns); p != "" {
		rep.Problems = append(rep.Problems, p)
	}
	if rep.PeakRSSMiB, err = procPeakRSSMiB(pid); err != nil {
		return err
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	return nil
}

// checkTraining verifies the budget was met and every reward and loss is
// finite, and returns each episode's wall time and simulator steps from
// the trainer's journal.
func checkTraining(res smc.TrainResult, j *telemetry.Journal, journal *bytes.Buffer, episodes int) ([]string, []float64, []int) {
	var problems []string
	if res.Episodes != episodes || len(res.EpisodeRewards) != episodes || res.Interrupted {
		problems = append(problems, fmt.Sprintf("completed %d of %d episodes", res.Episodes, episodes))
	}
	for i, r := range res.EpisodeRewards {
		if math.IsNaN(r) || math.IsInf(r, 0) {
			problems = append(problems, fmt.Sprintf("episode %d reward %v", i, r))
		}
	}
	// A non-finite loss cannot be journalled (JSON has no NaN), so a
	// journal error or a missing episode event is itself a failure.
	if err := j.Err(); err != nil {
		problems = append(problems, fmt.Sprintf("training journal: %v", err))
	}
	events, err := telemetry.ReadJournal(journal)
	if err != nil {
		problems = append(problems, fmt.Sprintf("read training journal: %v", err))
	}
	losses := 0
	var secs []float64
	var steps []int
	for _, ev := range events {
		if ev.Event != "smc.episode" {
			continue
		}
		n, okN := ev.Fields["steps"].(float64)
		d, okD := ev.Fields["seconds"].(float64)
		if !okN || !okD {
			problems = append(problems, fmt.Sprintf("episode %v has no steps or seconds", ev.Fields["episode"]))
		}
		steps = append(steps, int(n))
		secs = append(secs, d)
		l, ok := ev.Fields["loss"].(float64)
		if !ok || math.IsNaN(l) || math.IsInf(l, 0) {
			problems = append(problems, fmt.Sprintf("episode %v loss %v", ev.Fields["episode"], ev.Fields["loss"]))
		}
		losses++
	}
	if losses != episodes {
		problems = append(problems, fmt.Sprintf("journal holds %d episode losses, want %d", losses, episodes))
	}
	return problems, secs, steps
}

// sameActions compares the greedy decisions of two controllers on the
// probe set, bit for bit.
func sameActions(a, b *smc.SMC, scns []scenario.Scenario) string {
	probes, err := probeObservations(scns)
	if err != nil {
		return fmt.Sprintf("probe set: %v", err)
	}
	ads := vehicle.Control{Accel: 0.5}
	for i, obs := range probes {
		ca, cb := a.CloneForRun(), b.CloneForRun()
		ca.Reset()
		cb.Reset()
		ua, _ := ca.Mitigate(obs, ads)
		ub, _ := cb.Mitigate(obs, ads)
		if ca.LastAction() != cb.LastAction() || math.Float64bits(ua.Accel) != math.Float64bits(ub.Accel) ||
			math.Float64bits(ua.Steer) != math.Float64bits(ub.Steer) {
			return fmt.Sprintf("probe %d: saved controller acts %v, trained %v", i, cb.LastAction(), ca.LastAction())
		}
	}
	return ""
}

// trainProcess runs one system process and returns its set-up time and,
// when train is set, its training report.
func trainProcess(seed int64, train bool) (time.Duration, childReport, error) {
	var rep childReport
	self, err := os.Executable()
	if err != nil {
		return 0, rep, err
	}
	cmd := exec.Command(self, "--train-child", fmt.Sprint(trainEpisodes), "--seed", fmt.Sprint(seed))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	cmd.SysProcAttr = childAttr()
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return 0, rep, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, rep, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, rep, fmt.Errorf("start training process: %w", err)
	}
	sc := bufio.NewScanner(stdout)
	var setup time.Duration
	var last string
	for sc.Scan() {
		line := sc.Text()
		if line == "ready" && setup == 0 {
			setup = time.Since(t0)
			if train {
				io.WriteString(stdin, "go\n")
			}
			stdin.Close()
			continue
		}
		last = line
	}
	if err := cmd.Wait(); err != nil {
		return 0, rep, fmt.Errorf("training process: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	if setup == 0 {
		return 0, rep, fmt.Errorf("training process never reported ready")
	}
	if !train {
		return setup, rep, nil
	}
	if err := json.Unmarshal([]byte(last), &rep); err != nil {
		return 0, rep, fmt.Errorf("training process report %q: %w", last, err)
	}
	return setup, rep, nil
}

// runTrain is the untraced smc_train run: training processes back to back
// until the budget is spent (at least two); every figure is the median over
// processes of that process's own figure. The
// operation is one simulator step of training: the seed's learner changes
// how long episodes last (collisions end them early), so episodes are not a
// unit of equal work from seed to seed, and steps are. Latency is the wall
// time per step of the episode each step belongs to.
func runTrain(seed int64, budget time.Duration, t *tally, rep *report) error {
	deg, inputs, err := trainDegenerate(seed)
	if err != nil {
		return err
	}
	fmt.Printf("smc_train: %d of %d probe observations have oracle |T^∅| = 0 (degenerate, kept)\n", deg, inputs)
	var setups, rates, p50s, p99s, cpus, rss samples
	// Set-up alone is a few tens of milliseconds, so more processes are
	// started and stopped after set-up to steady its median.
	for i := 0; i < setupOnlyProcesses; i++ {
		setup, _, err := trainProcess(seed, false)
		if err != nil {
			return err
		}
		setups = append(setups, setup.Seconds())
	}
	digest, crashes := "", 0
	start := time.Now()
	for i := 0; i < 2 || time.Since(start) < budget; i++ {
		setup, cr, err := trainProcess(seed, true)
		if err != nil {
			return err
		}
		checkProcess(t, fmt.Sprintf("training process %d (seed %d)", i+1, seed), cr, digest)
		if digest == "" {
			digest, crashes = cr.Digest, cr.BaselineCrashes
		}
		setups = append(setups, setup.Seconds())
		rates = append(rates, float64(cr.Steps)/cr.TrainSeconds)
		cpus = append(cpus, cr.CPUms/float64(max(cr.Steps, 1)))
		rss = append(rss, cr.PeakRSSMiB)
		// Every step of an episode carries the episode's wall time per
		// step, so the percentiles are over steps, like throughput.
		var lat samples
		for k, d := range cr.EpisodeSeconds {
			for n := 0; n < cr.EpisodeSteps[k]; n++ {
				lat = append(lat, d*1000/float64(cr.EpisodeSteps[k]))
			}
		}
		p50s = append(p50s, lat.percentile(50))
		p99s = append(p99s, lat.percentile(99))
		fmt.Printf("smc_train process %d: setup %.3f s, %d episodes (%d steps) in %.3f s, wall time per step by episode %s, VmHWM %.1f MiB, digest %s\n",
			i+1, setup.Seconds(), cr.Episodes, cr.Steps, cr.TrainSeconds, lat.summary("ms"), cr.PeakRSSMiB, cr.Digest)
	}
	fmt.Printf("record: smc_train policy digest %s (budget %d episodes, %d workers, %d scenarios, baseline ADS crashes in %d)\n",
		digest, trainEpisodes, trainWorkers, trainScenarios, crashes)
	rep.set("setup_s", setups.median(), "s")
	rep.set("throughput_per_s", rates.median(), "ops/s")
	rep.set("latency_p50_ms", p50s.median(), "ms")
	rep.set("latency_p99_ms", p99s.median(), "ms")
	rep.set("cpu_ms_per_op", cpus.median(), "ms")
	rep.set("peak_rss_mib", rss.median(), "MiB")
	return nil
}

// checkProcess turns one training process's report into checked
// operations: a process is trainEpisodes operations, and any failed check
// of its output, or a policy digest that differs from want (when want is
// set), fails all of them.
func checkProcess(t *tally, label string, cr childReport, want string) {
	var err error
	switch {
	case len(cr.Problems) > 0:
		err = fmt.Errorf("%s", strings.Join(cr.Problems, "; "))
	case want != "" && cr.Digest != want:
		err = fmt.Errorf("policy digest %s differs from the first process's %s", cr.Digest, want)
	}
	for k := 0; k < trainEpisodes; k++ {
		t.note(fmt.Sprintf("%s episode %d", label, k), err)
	}
}

// trainDegenerate counts probe observations whose oracle |T^∅| is 0.
func trainDegenerate(seed int64) (int, int, error) {
	probes, err := probeObservations(trainScenarioSet(seed))
	if err != nil {
		return 0, 0, err
	}
	cfg := trainConfig(seed)
	n := 0
	for _, obs := range probes {
		ev, err := sti.NewEvaluator(cfg.Reach)
		if err != nil {
			return 0, 0, err
		}
		if ev.EvaluateWithPrediction(obs.Map, obs.Ego, agent.VisibleActors(obs, cfg.PerceptionRange)).EmptyVolume == 0 {
			n++
		}
	}
	return n, len(probes), nil
}
