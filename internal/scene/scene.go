// Package scene defines the versioned JSON wire format for risk-scoring
// scenes: the ego vehicle state, the surrounding actors with optional
// predicted trajectories, and the road geometry. It is the request codec
// shared by the scoring service (internal/server), the load generator
// (cmd/iprism-loadgen) and future dataset tooling; the iprism facade
// re-exports it for library users.
//
// The format is versioned so stored corpora survive schema evolution: every
// document carries `"version": "iprism.scene/v1"` and decoding rejects
// versions it does not understand instead of silently misreading them.
package scene

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/actor"
	"repro/internal/geom"
	"repro/internal/roadmap"
	"repro/internal/vehicle"
)

// Version is the wire-format identifier this package encodes and decodes.
const Version = "iprism.scene/v1"

// MaxCoord bounds the magnitude, in metres, of every ego, actor, trajectory
// and road coordinate a scene may carry. The reach-tube's dedup keys and
// grid cells index positions as int32 multiples of reach.Config's PosEps
// and CellSize, which with the default configuration stay exact only up to
// 2³¹ × 0.5 m ≈ 1.07e9 m; past that the indices wrap, distinct states and
// cells collide, and the tube silently shrinks towards "no threat". The
// bound leaves three orders of magnitude of margin for finer resolutions
// and for the tube's reach beyond its root.
const MaxCoord = 1e6

// Scene is one scoring request: a road, an ego state, and actors.
type Scene struct {
	Version string `json:"version"`
	// Time stamps the observation in episode seconds; used by the session
	// API's rolling trace, ignored by stateless scoring.
	Time   float64 `json:"time,omitempty"`
	Ego    State   `json:"ego"`
	Road   Road    `json:"road"`
	Actors []Actor `json:"actors,omitempty"`
}

// State is a kinematic vehicle state on the wire.
type State struct {
	X       float64 `json:"x"`
	Y       float64 `json:"y"`
	Heading float64 `json:"heading"`
	Speed   float64 `json:"speed"`
}

// Actor is a road user on the wire. Trajectory, when present, is the
// client's own prediction sampled every TrajectoryDt seconds (index 0 at
// the scene time); when absent the server predicts with the CVTR model, the
// paper's online configuration.
type Actor struct {
	ID      int     `json:"id"`
	Kind    string  `json:"kind"` // "vehicle" | "pedestrian" | "static"
	State   State   `json:"state"`
	Length  float64 `json:"length,omitempty"`
	Width   float64 `json:"width,omitempty"`
	YawRate float64 `json:"yaw_rate,omitempty"`

	Trajectory   []State `json:"trajectory,omitempty"`
	TrajectoryDt float64 `json:"trajectory_dt,omitempty"`
}

// Road is the drivable-area model, a tagged union over the two map
// families of the paper's evaluation.
type Road struct {
	Kind     string        `json:"kind"` // "straight" | "ring"
	Straight *StraightRoad `json:"straight,omitempty"`
	Ring     *RingRoad     `json:"ring,omitempty"`
}

// StraightRoad mirrors roadmap.StraightRoad.
type StraightRoad struct {
	Lanes     int     `json:"lanes"`
	LaneWidth float64 `json:"lane_width"`
	XMin      float64 `json:"x_min"`
	XMax      float64 `json:"x_max"`
}

// RingRoad mirrors roadmap.RingRoad.
type RingRoad struct {
	CenterX float64 `json:"center_x"`
	CenterY float64 `json:"center_y"`
	InnerR  float64 `json:"inner_r"`
	OuterR  float64 `json:"outer_r"`
}

// toState converts a wire state to the internal representation.
func (s State) toState() vehicle.State {
	return vehicle.State{Pos: geom.V(s.X, s.Y), Heading: s.Heading, Speed: s.Speed}
}

// fromState converts an internal state to the wire representation.
func fromState(s vehicle.State) State {
	return State{X: s.Pos.X, Y: s.Pos.Y, Heading: s.Heading, Speed: s.Speed}
}

var kindByName = map[string]actor.Kind{
	"vehicle":    actor.KindVehicle,
	"pedestrian": actor.KindPedestrian,
	"static":     actor.KindStatic,
}

// Encode marshals a scene, stamping the current Version.
func Encode(s Scene) ([]byte, error) {
	s.Version = Version
	return json.Marshal(s)
}

// Decode unmarshals and validates one scene document.
func Decode(data []byte) (Scene, error) {
	var s Scene
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("scene: decode: %w", err)
	}
	if err := s.Validate(); err != nil {
		return s, err
	}
	return s, nil
}

// DecodeReader is Decode over a stream (an HTTP request body).
func DecodeReader(r io.Reader) (Scene, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return Scene{}, fmt.Errorf("scene: read: %w", err)
	}
	return Decode(data)
}

// Validate checks the version tag, structural invariants and the model's
// input domain without materialising the scene. Out-of-domain scenes fail
// closed here rather than scoring a meaningless STI: any non-finite number,
// an ego, actor, trajectory or road coordinate beyond ±MaxCoord, an
// ego speed outside [0, vehicle.DefaultParams().MaxSpeed], a negative actor
// speed, or an ego or actor heading beyond ±2π.
func (s Scene) Validate() error {
	switch {
	case s.Version == "":
		return fmt.Errorf("scene: missing version (want %q)", Version)
	case s.Version != Version:
		if strings.HasPrefix(s.Version, "iprism.scene/") {
			return fmt.Errorf("scene: unsupported version %q (this build speaks %q)", s.Version, Version)
		}
		return fmt.Errorf("scene: not a scene document: version %q", s.Version)
	}
	switch s.Road.Kind {
	case "straight":
		if s.Road.Straight == nil {
			return fmt.Errorf("scene: road kind %q without straight parameters", s.Road.Kind)
		}
	case "ring":
		if s.Road.Ring == nil {
			return fmt.Errorf("scene: road kind %q without ring parameters", s.Road.Kind)
		}
	default:
		return fmt.Errorf("scene: unknown road kind %q (want straight|ring)", s.Road.Kind)
	}
	// A straight road spans x in [XMin, XMax] and y in [0, Lanes×LaneWidth].
	if r := s.Road.Straight; r != nil && !inBounds(r.XMin, r.XMax, r.LaneWidth*float64(r.Lanes)) {
		return fmt.Errorf("scene: straight road has a non-finite parameter or extends beyond ±%g m", MaxCoord)
	}
	if r := s.Road.Ring; r != nil && !inBounds(r.CenterX, r.CenterY, r.InnerR, r.OuterR) {
		return fmt.Errorf("scene: ring road has a non-finite parameter or one beyond ±%g m", MaxCoord)
	}
	if !finite(s.Time) {
		return fmt.Errorf("scene: time %v is not finite", s.Time)
	}
	if err := s.Ego.checkDomain("ego"); err != nil {
		return err
	}
	if maxSpeed := vehicle.DefaultParams().MaxSpeed; s.Ego.Speed > maxSpeed {
		return fmt.Errorf("scene: ego speed %v above the model's maximum %v", s.Ego.Speed, maxSpeed)
	}
	for i, a := range s.Actors {
		if _, ok := kindByName[a.Kind]; !ok {
			return fmt.Errorf("scene: actor %d: unknown kind %q (want vehicle|pedestrian|static)", i, a.Kind)
		}
		if len(a.Trajectory) > 0 && a.TrajectoryDt <= 0 {
			return fmt.Errorf("scene: actor %d: trajectory without positive trajectory_dt", i)
		}
		if err := a.State.checkDomain(fmt.Sprintf("actor %d", i)); err != nil {
			return err
		}
		if !finite(a.Length, a.Width, a.YawRate, a.TrajectoryDt) {
			return fmt.Errorf("scene: actor %d has a non-finite footprint, yaw rate or trajectory_dt", i)
		}
		for j, ts := range a.Trajectory {
			if !finite(ts.Heading, ts.Speed) || !inBounds(ts.X, ts.Y) {
				return fmt.Errorf("scene: actor %d: trajectory state %d is not finite or lies beyond ±%g m", i, j, MaxCoord)
			}
		}
	}
	return nil
}

// checkDomain rejects a non-finite state, a position beyond ±MaxCoord,
// a negative speed, or a heading beyond ±2π.
func (s State) checkDomain(what string) error {
	switch {
	case !finite(s.X, s.Y, s.Heading, s.Speed):
		return fmt.Errorf("scene: %s state is not finite", what)
	case !inBounds(s.X, s.Y):
		return fmt.Errorf("scene: %s position (%g, %g) lies beyond ±%g m", what, s.X, s.Y, MaxCoord)
	case s.Speed < 0:
		return fmt.Errorf("scene: %s speed %v is negative", what, s.Speed)
	case math.Abs(s.Heading) > 2*math.Pi:
		return fmt.Errorf("scene: %s heading %v is beyond ±2π", what, s.Heading)
	}
	return nil
}

// inBounds reports whether every value is finite and within ±MaxCoord.
func inBounds(vs ...float64) bool {
	for _, v := range vs {
		if !(math.Abs(v) <= MaxCoord) { // also false for NaN
			return false
		}
	}
	return true
}

func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// Materialize converts the wire scene into the internal types an
// sti.Evaluator consumes. trajs[i] is non-zero only for actors carrying an
// explicit trajectory; hasTrajs reports whether any actor did, in which
// case the caller should pass trajs to Evaluate (missing ones CVTR-predicted)
// rather than predicting everything.
func (s Scene) Materialize() (m roadmap.Map, ego vehicle.State, actors []*actor.Actor, trajs []actor.Trajectory, hasTrajs bool, err error) {
	if err = s.Validate(); err != nil {
		return nil, vehicle.State{}, nil, nil, false, err
	}
	switch s.Road.Kind {
	case "straight":
		r := s.Road.Straight
		m, err = roadmap.NewStraightRoad(r.Lanes, r.LaneWidth, r.XMin, r.XMax)
	case "ring":
		r := s.Road.Ring
		m, err = roadmap.NewRingRoad(geom.V(r.CenterX, r.CenterY), r.InnerR, r.OuterR)
	}
	if err != nil {
		return nil, vehicle.State{}, nil, nil, false, fmt.Errorf("scene: road: %w", err)
	}
	ego = s.Ego.toState()
	actors = make([]*actor.Actor, len(s.Actors))
	trajs = make([]actor.Trajectory, len(s.Actors))
	for i, wa := range s.Actors {
		a := &actor.Actor{
			ID:      wa.ID,
			Kind:    kindByName[wa.Kind],
			State:   wa.State.toState(),
			Length:  wa.Length,
			Width:   wa.Width,
			YawRate: wa.YawRate,
		}
		// Default footprints per kind so terse hand-written scenes work.
		if a.Length <= 0 || a.Width <= 0 {
			proto := actor.NewVehicle(0, vehicle.State{})
			if a.Kind == actor.KindPedestrian {
				proto = actor.NewPedestrian(0, vehicle.State{})
			}
			if a.Length <= 0 {
				a.Length = proto.Length
			}
			if a.Width <= 0 {
				a.Width = proto.Width
			}
		}
		actors[i] = a
		if len(wa.Trajectory) > 0 {
			states := make([]vehicle.State, len(wa.Trajectory))
			for j, ws := range wa.Trajectory {
				states[j] = ws.toState()
			}
			trajs[i] = actor.Trajectory{Dt: wa.TrajectoryDt, States: states}
			hasTrajs = true
		}
	}
	return m, ego, actors, trajs, hasTrajs, nil
}

// FromParts builds a wire scene from internal types — the inverse of
// Materialize for scenes without explicit trajectories. Supported map
// families are StraightRoad and RingRoad.
func FromParts(m roadmap.Map, ego vehicle.State, actors []*actor.Actor, t float64) (Scene, error) {
	s := Scene{Version: Version, Time: t, Ego: fromState(ego)}
	switch r := m.(type) {
	case *roadmap.StraightRoad:
		s.Road = Road{Kind: "straight", Straight: &StraightRoad{
			Lanes: r.NumLanes, LaneWidth: r.LaneWidth, XMin: r.XMin, XMax: r.XMax,
		}}
	case *roadmap.RingRoad:
		s.Road = Road{Kind: "ring", Ring: &RingRoad{
			CenterX: r.Center.X, CenterY: r.Center.Y, InnerR: r.InnerR, OuterR: r.OuterR,
		}}
	default:
		return s, fmt.Errorf("scene: unsupported map type %T", m)
	}
	s.Actors = make([]Actor, len(actors))
	for i, a := range actors {
		s.Actors[i] = Actor{
			ID:      a.ID,
			Kind:    a.Kind.String(),
			State:   fromState(a.State),
			Length:  a.Length,
			Width:   a.Width,
			YawRate: a.YawRate,
		}
	}
	return s, nil
}
