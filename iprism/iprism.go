// Package iprism is the public facade of the iPrism reproduction: risk
// assessment with the Safety-Threat Indicator (STI) and risk mitigation
// with the RL-based Safety-hazard Mitigation Controller (SMC), as described
// in "iPrism: Characterize and Mitigate Risk by Quantifying Change in
// Escape Routes" (DSN 2024).
//
// Typical use:
//
//	eval := iprism.NewEvaluator(iprism.DefaultReachConfig())
//	res := eval.EvaluateWithPrediction(roadMap, egoState, actors)
//	fmt.Println(res.Combined, res.PerActor)
//
// and, for closed-loop mitigation on top of any ADS driver:
//
//	ctrl, _, err := iprism.TrainSMC(trainScenarios, makeDriver, iprism.DefaultSMCConfig(), episodes)
//	outcome := iprism.RunEpisode(world, driver, ctrl)
package iprism

import (
	"context"

	"repro/internal/actor"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/reach"
	"repro/internal/roadmap"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/smc"
	"repro/internal/sti"
	"repro/internal/vehicle"
)

// Core geometry and dynamics types.
type (
	// Vec2 is a 2-D point or displacement in metres.
	Vec2 = geom.Vec2
	// VehicleState is the kinematic bicycle-model state [x, y, θ, v].
	VehicleState = vehicle.State
	// VehicleParams describes a vehicle's physical limits and footprint.
	VehicleParams = vehicle.Params
	// Actor is a road user other than (or including) the ego vehicle.
	Actor = actor.Actor
	// Trajectory is a time-ordered state sequence X_{t:t+k}.
	Trajectory = actor.Trajectory
	// Map is a drivable-area model 𝓜.
	Map = roadmap.Map
	// StraightRoad is a straight multi-lane road.
	StraightRoad = roadmap.StraightRoad
	// RingRoad is the roundabout map family.
	RingRoad = roadmap.RingRoad
)

// Risk assessment types.
type (
	// ReachConfig parameterises the reach-tube computation (Algorithm 1).
	ReachConfig = reach.Config
	// Evaluator computes STI (Eqs. 4–5).
	Evaluator = sti.Evaluator
	// Result holds per-actor and combined STI for one instant.
	Result = sti.Result
)

// Mitigation types.
type (
	// SMC is the trained Safety-hazard Mitigation Controller.
	SMC = smc.SMC
	// SMCConfig parameterises SMC features, reward (Eq. 8) and training.
	SMCConfig = smc.Config
	// Scenario is a safety-critical scenario instance (§IV-B1).
	Scenario = scenario.Scenario
	// Typology is an NHTSA-derived scenario family.
	Typology = scenario.Typology
	// World is the simulation state.
	World = sim.World
	// Driver is an autonomous driving system under test.
	Driver = sim.Driver
	// Mitigator is a safety controller layered over a Driver.
	Mitigator = sim.Mitigator
	// Outcome summarises an episode.
	Outcome = sim.Outcome
)

// Baseline risk-metric types (§IV-C).
type (
	// MetricScene is the common input to TTC / Dist. CIPA / PKL.
	MetricScene = metrics.Scene
	// PKLModel is the learned planner-KL-divergence cost model.
	PKLModel = metrics.PKLModel
)

// V constructs a Vec2.
func V(x, y float64) Vec2 { return geom.V(x, y) }

// DefaultReachConfig returns the paper's reach-tube configuration:
// k = 3 s horizon, Δt = 0.5 s slices, boundary-control enumeration.
func DefaultReachConfig() ReachConfig { return reach.DefaultConfig() }

// DefaultVehicleParams returns the sedan parameters used throughout the
// evaluation.
func DefaultVehicleParams() VehicleParams { return vehicle.DefaultParams() }

// NewEvaluator constructs an STI evaluator; it panics on an invalid
// configuration (use sti.NewEvaluator via the internal packages for error
// returns). Scenes of two or more actors are scored by one shared
// expansion that derives every counterfactual tube at once.
func NewEvaluator(cfg ReachConfig) *Evaluator { return sti.MustNewEvaluator(cfg) }

// NewVehicleActor creates a standard-sized vehicle actor.
func NewVehicleActor(id int, state VehicleState) *Actor { return actor.NewVehicle(id, state) }

// NewPedestrianActor creates a pedestrian actor.
func NewPedestrianActor(id int, state VehicleState) *Actor { return actor.NewPedestrian(id, state) }

// PredictCVTR forecasts an actor's trajectory with the constant-velocity-
// and-turn-rate model used online by the SMC (§IV-C).
func PredictCVTR(a *Actor, steps int, dt float64) Trajectory {
	return actor.PredictCVTR(a, steps, dt)
}

// NewStraightRoad constructs a straight multi-lane road map.
func NewStraightRoad(lanes int, laneWidth, xMin, xMax float64) (*StraightRoad, error) {
	return roadmap.NewStraightRoad(lanes, laneWidth, xMin, xMax)
}

// DefaultSMCConfig returns the SMC configuration used in the evaluation
// (brake/accelerate actions, STI-dominated Eq. 8 reward).
func DefaultSMCConfig() SMCConfig { return smc.DefaultConfig() }

// TrainSMC learns the mitigation policy ψ* on the given scenarios with the
// supplied ADS in the loop.
func TrainSMC(scns []Scenario, makeDriver func() Driver, cfg SMCConfig, episodes int) (*SMC, smc.TrainResult, error) {
	return smc.Train(scns, makeDriver, cfg, episodes)
}

// TrainSMCContext is TrainSMC with cancellation and checkpoint/resume:
// training stops at the next episode boundary when ctx is cancelled,
// returning the partial result (and a final checkpoint when opts configures
// one). cfg.EpisodeWorkers > 1 runs the pipelined parallel trainer.
func TrainSMCContext(ctx context.Context, scns []Scenario, makeDriver func() Driver, cfg SMCConfig, episodes int, opts smc.TrainOptions) (*SMC, smc.TrainResult, error) {
	return smc.TrainContext(ctx, scns, makeDriver, cfg, episodes, opts)
}

// GenerateScenarios samples n instances of an NHTSA typology (§IV-B1) under
// a deterministic seed, validity-filtered where the typology requires it.
func GenerateScenarios(ty Typology, n int, seed int64) []Scenario {
	return scenario.GenerateValid(ty, n, seed)
}

// RunEpisode drives one scenario episode with an optional mitigator.
func RunEpisode(w *World, driver Driver, mit Mitigator) Outcome {
	return sim.Run(w, driver, mit, sim.RunConfig{})
}

// Scenario typology re-exports.
const (
	GhostCutIn      = scenario.GhostCutIn
	LeadCutIn       = scenario.LeadCutIn
	LeadSlowdown    = scenario.LeadSlowdown
	FrontAccident   = scenario.FrontAccident
	RearEnd         = scenario.RearEnd
	RoundaboutCutIn = scenario.RoundaboutCutIn
)

// TTC returns the minimum time-to-collision over in-path actors.
func TTC(s MetricScene) float64 { return metrics.TTC(s) }

// DistCIPA returns the distance to the closest in-path actor.
func DistCIPA(s MetricScene) float64 { return metrics.DistCIPA(s) }
