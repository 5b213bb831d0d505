// Package smc implements iPrism's Safety-hazard Mitigation Controller
// (§III-B): a Double-DQN agent that monitors the scene, and overwrites the
// ADS action with a mitigation action (braking, acceleration — lane changes
// as the extension the paper leaves to future work) to proactively reduce
// the combined Safety-Threat Indicator.
//
// The paper's SMC consumes camera frames through a CNN; this reproduction
// substitutes a ground-truth feature vector (ego kinematics, the K nearest
// actors in the ego frame, and the current STI) as documented in DESIGN.md.
// The reward is Eq. 8: α0·(1 − STI^combined) + α1·r_pc − α2·1[a ≠ No-Op].
package smc

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/actor"
	"repro/internal/geom"
	"repro/internal/reach"
	"repro/internal/rl"
	"repro/internal/roadmap"
	"repro/internal/sim"
	"repro/internal/sti"
	"repro/internal/vehicle"
)

// Action is one SMC mitigation action.
type Action int

// The SMC action space. NoOp defers to the ADS; Brake and Accelerate are
// the actions evaluated in the paper; LaneLeft/LaneRight implement the
// lane-change extension discussed in §VII.
const (
	NoOp Action = iota
	Brake
	Accelerate
	LaneLeft
	LaneRight
)

// String implements fmt.Stringer.
func (a Action) String() string {
	switch a {
	case NoOp:
		return "no-op"
	case Brake:
		return "brake"
	case Accelerate:
		return "accelerate"
	case LaneLeft:
		return "lane-left"
	case LaneRight:
		return "lane-right"
	default:
		return fmt.Sprintf("Action(%d)", int(a))
	}
}

// Config parameterises the SMC.
type Config struct {
	// Actions is the allowed action set; index 0 must be NoOp.
	Actions []Action
	// Reward weights of Eq. 8 (α2 enters negatively).
	Alpha0, Alpha1, Alpha2 float64
	// UseSTI toggles the α0 STI term; false reproduces the paper's
	// "SMC w/o STI" ablation.
	UseSTI bool
	// PerceptionRange limits which actors are featurised and enter the STI
	// computation.
	PerceptionRange float64
	// MaxActors is the number of nearest actors in the feature vector.
	MaxActors int
	// DecisionStride executes a new decision every N simulator steps,
	// holding the previous action in between.
	DecisionStride int
	// EpisodeWorkers bounds the concurrent episode runners during training.
	// 0 or 1 runs the fully serial loop (bitwise-identical to the historical
	// trainer); N>1 runs a pipelined worker pool that is run-to-run
	// deterministic for a fixed seed but follows a different (snapshot-
	// actored) schedule than the serial loop. See DESIGN.md §13.
	EpisodeWorkers int
	// Reach configures the STI evaluator.
	Reach reach.Config
	// DDQN configures the learner.
	DDQN rl.DDQNConfig
}

// DefaultConfig returns the configuration used in the evaluation: braking
// and acceleration actions, STI-dominated reward.
func DefaultConfig() Config {
	return Config{
		Actions:         []Action{NoOp, Brake, Accelerate},
		Alpha0:          1.0,
		Alpha1:          0.3,
		Alpha2:          0.02,
		UseSTI:          true,
		PerceptionRange: 60,
		MaxActors:       4,
		DecisionStride:  2,
		EpisodeWorkers:  1,
		Reach:           reach.DefaultConfig(),
		DDQN:            rl.DefaultDDQNConfig(),
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if len(c.Actions) < 2 || c.Actions[0] != NoOp {
		return fmt.Errorf("smc: action set must start with NoOp and offer an alternative, got %v", c.Actions)
	}
	if c.MaxActors < 1 {
		return fmt.Errorf("smc: need at least one featurised actor, got %d", c.MaxActors)
	}
	if c.PerceptionRange <= 0 {
		return fmt.Errorf("smc: perception range must be positive, got %v", c.PerceptionRange)
	}
	if c.DecisionStride < 1 {
		return fmt.Errorf("smc: decision stride must be >= 1, got %d", c.DecisionStride)
	}
	if c.EpisodeWorkers < 0 {
		return fmt.Errorf("smc: episode workers must be >= 0, got %d", c.EpisodeWorkers)
	}
	return c.Reach.Validate()
}

// FeatureDim returns the feature-vector length for the configuration.
func (c Config) FeatureDim() int { return 4 + 5*c.MaxActors }

// featurize builds the RL state S_t from an observation: normalised ego
// kinematics (expressed relative to the road geometry, so policies transfer
// between straight roads and the roundabout), the combined STI, and the K
// nearest actors expressed in the ego frame.
func featurize(obs sim.Observation, stiVal float64, cfg Config) []float64 {
	f := make([]float64, cfg.FeatureDim())
	lateral, headingErr := roadRelativePose(obs)
	f[0] = obs.Ego.Speed / 30
	f[1] = lateral
	f[2] = headingErr / math.Pi
	f[3] = stiVal

	visible := nearestActors(obs, cfg)
	sin, cos := math.Sincos(obs.Ego.Heading)
	fwd := geom.V(cos, sin)
	lat := geom.V(-sin, cos)
	egoVel := obs.Ego.Velocity()
	for i := 0; i < cfg.MaxActors && i < len(visible); i++ {
		a := visible[i]
		rel := a.State.Pos.Sub(obs.Ego.Pos)
		dv := a.State.Velocity().Sub(egoVel)
		base := 4 + 5*i
		f[base+0] = geom.Clamp(rel.Dot(fwd)/50, -1, 1)
		f[base+1] = geom.Clamp(rel.Dot(lat)/10, -1, 1)
		f[base+2] = geom.Clamp(dv.Dot(fwd)/30, -1, 1)
		f[base+3] = geom.Clamp(dv.Dot(lat)/30, -1, 1)
		f[base+4] = 1 // presence flag
	}
	return f
}

// roadRelativePose returns the ego's lateral offset from the road centre
// (normalised by the road width) and its heading error relative to the
// local travel direction, for both straight roads and ring roads.
func roadRelativePose(obs sim.Observation) (lateral, headingErr float64) {
	switch road := obs.Map.(type) {
	case *roadmap.StraightRoad:
		width := road.Width()
		if width <= 0 {
			return 0, obs.Ego.Heading
		}
		return (obs.Ego.Pos.Y - width/2) / width, obs.Ego.Heading
	case *roadmap.RingRoad:
		width := road.OuterR - road.InnerR
		radial := obs.Ego.Pos.Dist(road.Center)
		tangent := geom.NormalizeAngle(road.AngleOf(obs.Ego.Pos) + math.Pi/2)
		return (radial - road.MidRadius()) / width, geom.AngleDiff(obs.Ego.Heading, tangent)
	default:
		return 0, obs.Ego.Heading
	}
}

func nearestActors(obs sim.Observation, cfg Config) []*actor.Actor {
	visible := make([]*actor.Actor, 0, len(obs.Actors))
	for _, a := range obs.Actors {
		if a.State.Pos.Dist(obs.Ego.Pos) <= cfg.PerceptionRange {
			visible = append(visible, a)
		}
	}
	sort.Slice(visible, func(i, j int) bool {
		return visible[i].State.Pos.DistSq(obs.Ego.Pos) < visible[j].State.Pos.DistSq(obs.Ego.Pos)
	})
	return visible
}

// applyAction converts an SMC action into a control, overwriting the ADS
// control for everything except NoOp (the ⊗ operator of Fig. 2).
func applyAction(a Action, obs sim.Observation, ads vehicle.Control) vehicle.Control {
	switch a {
	case Brake:
		return vehicle.Control{Accel: obs.EgoParams.MaxBrake, Steer: ads.Steer}
	case Accelerate:
		return vehicle.Control{Accel: obs.EgoParams.MaxAccel, Steer: ads.Steer}
	case LaneLeft:
		return vehicle.Control{Accel: ads.Accel, Steer: laneChangeSteer(obs, +1)}
	case LaneRight:
		return vehicle.Control{Accel: ads.Accel, Steer: laneChangeSteer(obs, -1)}
	default:
		return ads
	}
}

// laneChangeSteer steers one lane width towards +y (dir=+1) or -y (dir=-1)
// on straight roads; on other maps it applies a gentle fixed steer.
func laneChangeSteer(obs sim.Observation, dir float64) float64 {
	if road, ok := obs.Map.(*roadmap.StraightRoad); ok {
		lane, on := road.LaneAt(obs.Ego.Pos.Y)
		if on {
			target := road.LaneCenter(lane) + dir*road.LaneWidth
			latErr := target - obs.Ego.Pos.Y
			return geom.Clamp(0.2*latErr-1.2*obs.Ego.Heading, -obs.EgoParams.MaxSteer, obs.EgoParams.MaxSteer)
		}
	}
	return geom.Clamp(dir*0.2, -obs.EgoParams.MaxSteer, obs.EgoParams.MaxSteer)
}

// SMC is the trained mitigation controller; it implements sim.Mitigator.
type SMC struct {
	cfg    Config
	policy *rl.Policy
	eval   *sti.Evaluator

	// warm retains the previous decision's shared expansion state so that
	// re-scoring a scene whose ego root has not moved (a braked ego riding
	// out a hazard) reuses the prior tick's path-sweep verdicts. One state
	// per controller instance: CloneForRun hands every concurrent episode
	// its own.
	warm    *sti.WarmState
	prevEgo vehicle.State
	hasPrev bool

	stepsSinceDecision int
	lastAction         Action
}

var _ sim.Mitigator = (*SMC)(nil)

// New wraps a trained policy into a deployable controller.
func New(cfg Config, policy *rl.Policy) (*SMC, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// The evaluator's shared expansion backs the warm start used when the
	// ego root is stationary between decisions; the common moving-ego
	// decision still takes the two-tube EvaluateCombined fast path.
	eval, err := sti.NewEvaluator(cfg.Reach)
	if err != nil {
		return nil, err
	}
	return &SMC{cfg: cfg, policy: policy, eval: eval, warm: sti.NewWarmState()}, nil
}

// Config returns the controller's configuration.
func (s *SMC) Config() Config { return s.cfg }

// CloneForRun returns a controller sharing this one's (read-only) policy
// and STI evaluator cache but with independent per-episode state (including
// a private warm-start state), so suites can be evaluated concurrently.
func (s *SMC) CloneForRun() *SMC {
	return &SMC{cfg: s.cfg, policy: s.policy, eval: s.eval, warm: sti.NewWarmState()}
}

// Reset implements sim.Mitigator.
func (s *SMC) Reset() {
	s.stepsSinceDecision = 0
	s.lastAction = NoOp
	s.hasPrev = false
	if s.warm != nil && !s.warm.TryReset() {
		// An evaluation still owns the state (a racing clone misuse);
		// abandon it rather than corrupt the in-flight tick.
		s.warm = sti.NewWarmState()
	}
}

// Mitigate implements sim.Mitigator: every DecisionStride steps it
// featurises the scene (including a fresh STI evaluation with CVTR-
// predicted actor trajectories) and executes the greedy policy action.
func (s *SMC) Mitigate(obs sim.Observation, ads vehicle.Control) (vehicle.Control, bool) {
	if s.stepsSinceDecision > 0 {
		s.stepsSinceDecision = (s.stepsSinceDecision + 1) % s.cfg.DecisionStride
		return applyAction(s.lastAction, obs, ads), s.lastAction != NoOp
	}
	s.stepsSinceDecision = (s.stepsSinceDecision + 1) % s.cfg.DecisionStride

	stiVal := s.currentSTI(obs)
	feats := featurize(obs, stiVal, s.cfg)
	s.lastAction = s.cfg.Actions[s.policy.Act(feats)]
	return applyAction(s.lastAction, obs, ads), s.lastAction != NoOp
}

// LastAction returns the most recent decision.
func (s *SMC) LastAction() Action { return s.lastAction }

func (s *SMC) currentSTI(obs sim.Observation) float64 {
	visible := nearestActors(obs, s.cfg)
	// A reach warm start can only validate when the ego root is bitwise
	// unchanged since the previous decision (a stopped ego riding out a
	// hazard) — any ego motion is a guaranteed cold re-expansion, where the
	// two-tube EvaluateCombined fast path is strictly cheaper than the
	// shared per-actor engine. Gate the warm path on exactly the states
	// that can hit. Both paths return bitwise-identical combined STI (the
	// engine-vs-oracle and warm-vs-cold differential suites), so the gate
	// trades only compute.
	warmable := s.warm != nil && s.hasPrev && len(visible) > 1 && obs.Ego == s.prevEgo
	s.prevEgo = obs.Ego
	s.hasPrev = true
	if warmable {
		trajs := actor.PredictAll(visible, s.cfg.Reach.NumSlices(), s.cfg.Reach.SliceDt)
		res, _ := s.eval.EvaluateWarm(obs.Map, obs.Ego, visible, trajs, s.warm)
		return res.Combined
	}
	return s.eval.CombinedWithPrediction(obs.Map, obs.Ego, visible)
}
