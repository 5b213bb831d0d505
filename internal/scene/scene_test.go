package scene

import (
	"math"
	"strings"
	"testing"

	"repro/internal/actor"
	"repro/internal/geom"
	"repro/internal/roadmap"
	"repro/internal/vehicle"
)

func straightScene() Scene {
	return Scene{
		Version: Version,
		Time:    2.5,
		Ego:     State{X: 0, Y: 1.75, Heading: 0, Speed: 10},
		Road: Road{Kind: "straight", Straight: &StraightRoad{
			Lanes: 2, LaneWidth: 3.5, XMin: -100, XMax: 400,
		}},
		Actors: []Actor{
			{ID: 1, Kind: "vehicle", State: State{X: 14, Y: 1.75, Speed: 3}, Length: 4.7, Width: 2.0},
			{ID: 2, Kind: "pedestrian", State: State{X: 30, Y: 5.25, Speed: 1.2}},
		},
	}
}

func TestRoundTripStraight(t *testing.T) {
	in := straightScene()
	raw, err := Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if out.Version != Version {
		t.Errorf("version = %q, want %q", out.Version, Version)
	}
	if out.Time != in.Time || out.Ego != in.Ego {
		t.Errorf("ego/time changed: %+v vs %+v", out, in)
	}
	if len(out.Actors) != 2 || out.Actors[0].State != in.Actors[0].State ||
		out.Actors[0].ID != in.Actors[0].ID || out.Actors[1].Kind != "pedestrian" {
		t.Errorf("actors changed: %+v", out.Actors)
	}
	if *out.Road.Straight != *in.Road.Straight {
		t.Errorf("road changed: %+v", out.Road.Straight)
	}
}

func TestRoundTripRingWithTrajectory(t *testing.T) {
	in := Scene{
		Version: Version,
		Ego:     State{X: 20, Y: 0, Heading: 1.57, Speed: 8},
		Road:    Road{Kind: "ring", Ring: &RingRoad{InnerR: 14, OuterR: 24}},
		Actors: []Actor{{
			ID: 7, Kind: "vehicle", State: State{X: 0, Y: 20, Heading: 3.14, Speed: 8},
			Trajectory:   []State{{X: 0, Y: 20}, {X: -4, Y: 19}, {X: -8, Y: 17}},
			TrajectoryDt: 0.5,
		}},
	}
	raw, err := Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	m, ego, actors, trajs, hasTrajs, err := out.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.(*roadmap.RingRoad); !ok {
		t.Fatalf("map type %T, want *roadmap.RingRoad", m)
	}
	if ego.Speed != 8 || ego.Pos != geom.V(20, 0) {
		t.Errorf("ego = %v", ego)
	}
	if !hasTrajs {
		t.Fatal("explicit trajectory lost")
	}
	if trajs[0].Dt != 0.5 || trajs[0].Len() != 3 {
		t.Errorf("trajectory = %+v", trajs[0])
	}
	if actors[0].Kind != actor.KindVehicle || actors[0].ID != 7 {
		t.Errorf("actor = %+v", actors[0])
	}
	// Wire omitted the footprint: the vehicle default must be applied.
	if actors[0].Length != 4.7 || actors[0].Width != 2.0 {
		t.Errorf("default footprint not applied: %v x %v", actors[0].Length, actors[0].Width)
	}
}

func TestMaterializeMatchesFromParts(t *testing.T) {
	road := roadmap.MustStraightRoad(3, 3.5, -50, 500)
	ego := vehicle.State{Pos: geom.V(5, 1.75), Heading: 0.1, Speed: 12}
	actors := []*actor.Actor{
		actor.NewVehicle(1, vehicle.State{Pos: geom.V(25, 5.25), Speed: 9}),
		actor.NewPedestrian(2, vehicle.State{Pos: geom.V(40, 8), Speed: 1}),
	}
	s, err := FromParts(road, ego, actors, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	m2, ego2, actors2, _, hasTrajs, err := out.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if hasTrajs {
		t.Error("no trajectories were encoded")
	}
	if *m2.(*roadmap.StraightRoad) != *road {
		t.Errorf("road = %+v, want %+v", m2, road)
	}
	if ego2 != ego {
		t.Errorf("ego = %v, want %v", ego2, ego)
	}
	if len(actors2) != len(actors) {
		t.Fatalf("actors = %d, want %d", len(actors2), len(actors))
	}
	for i := range actors {
		if *actors2[i] != *actors[i] {
			t.Errorf("actor %d = %+v, want %+v", i, actors2[i], actors[i])
		}
	}
}

func TestDecodeRejects(t *testing.T) {
	cases := []struct {
		name, body, want string
	}{
		{"not json", `{`, "decode"},
		{"missing version", `{"ego":{}}`, "missing version"},
		{"future version", `{"version":"iprism.scene/v99"}`, "unsupported version"},
		{"wrong document", `{"version":"iprism.trace/v1"}`, "not a scene document"},
		{"unknown road", `{"version":"iprism.scene/v1","road":{"kind":"moebius"}}`, "unknown road kind"},
		{"straight without params", `{"version":"iprism.scene/v1","road":{"kind":"straight"}}`, "without straight parameters"},
		{"bad actor kind", `{"version":"iprism.scene/v1","road":{"kind":"ring","ring":{"inner_r":5,"outer_r":9}},"actors":[{"id":1,"kind":"tank"}]}`, "unknown kind"},
		{"trajectory without dt", `{"version":"iprism.scene/v1","road":{"kind":"ring","ring":{"inner_r":5,"outer_r":9}},"actors":[{"id":1,"kind":"vehicle","trajectory":[{"x":1}]}]}`, "trajectory_dt"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Decode([]byte(tc.body))
			if err == nil {
				t.Fatal("decode accepted invalid document")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// translate shifts every x coordinate of a straight-road scene by dx.
func translate(s *Scene, dx float64) {
	s.Ego.X += dx
	s.Road.Straight.XMin += dx
	s.Road.Straight.XMax += dx
	for i := range s.Actors {
		s.Actors[i].State.X += dx
		for j := range s.Actors[i].Trajectory {
			s.Actors[i].Trajectory[j].X += dx
		}
	}
}

func TestMaterializeRejectsInvalidRoad(t *testing.T) {
	s := straightScene()
	s.Road.Straight.XMax = s.Road.Straight.XMin // empty extent
	if _, _, _, _, _, err := s.Materialize(); err == nil {
		t.Error("invalid road materialised")
	}
}

// Out-of-domain scenes must fail closed in Validate (and so in Materialize
// and on the server's 400 path) rather than score a meaningless STI. The
// boundary values of the domain stay valid.
func TestValidateDomain(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name  string
		edit  func(*Scene)
		valid bool
	}{
		{"nan ego x", func(s *Scene) { s.Ego.X = nan }, false},
		{"inf ego y", func(s *Scene) { s.Ego.Y = -inf }, false},
		{"nan time", func(s *Scene) { s.Time = nan }, false},
		{"inf lane width", func(s *Scene) { s.Road.Straight.LaneWidth = inf }, false},
		{"nan ring radius", func(s *Scene) {
			s.Road = Road{Kind: "ring", Ring: &RingRoad{InnerR: nan, OuterR: 9}}
		}, false},
		{"nan actor speed", func(s *Scene) { s.Actors[0].State.Speed = nan }, false},
		{"inf actor length", func(s *Scene) { s.Actors[0].Length = inf }, false},
		{"nan yaw rate", func(s *Scene) { s.Actors[1].YawRate = nan }, false},
		{"nan trajectory state", func(s *Scene) {
			s.Actors[0].Trajectory = []State{{X: 1}, {X: nan}}
			s.Actors[0].TrajectoryDt = 0.5
		}, false},
		{"ego speed 1e6", func(s *Scene) { s.Ego.Speed = 1e6 }, false},
		{"negative ego speed", func(s *Scene) { s.Ego.Speed = -50 }, false},
		{"negative actor speed", func(s *Scene) { s.Actors[1].State.Speed = -0.1 }, false},
		{"ego heading 1e300", func(s *Scene) { s.Ego.Heading = 1e300 }, false},
		{"actor heading past -2π", func(s *Scene) { s.Actors[0].State.Heading = -7 }, false},
		{"scene translated 3e9 m", func(s *Scene) { translate(s, 3e9) }, false},
		{"ego beyond the coordinate bound", func(s *Scene) { s.Ego.X = -1.5 * MaxCoord }, false},
		{"actor beyond the coordinate bound", func(s *Scene) { s.Actors[1].State.Y = 2 * MaxCoord }, false},
		{"trajectory beyond the coordinate bound", func(s *Scene) {
			s.Actors[0].Trajectory = []State{{X: 1}, {X: 2 * MaxCoord}}
			s.Actors[0].TrajectoryDt = 0.5
		}, false},
		{"straight road beyond the coordinate bound", func(s *Scene) { s.Road.Straight.XMax = 3e9 }, false},
		{"ring road beyond the coordinate bound", func(s *Scene) {
			s.Road = Road{Kind: "ring", Ring: &RingRoad{CenterX: 2 * MaxCoord, InnerR: 5, OuterR: 9}}
		}, false},
		{"scene translated to the coordinate bound", func(s *Scene) { translate(s, MaxCoord-s.Road.Straight.XMax) }, true},
		{"ego at max speed", func(s *Scene) { s.Ego.Speed = vehicle.DefaultParams().MaxSpeed }, true},
		{"stationary ego", func(s *Scene) { s.Ego.Speed = 0 }, true},
		{"heading exactly 2π", func(s *Scene) { s.Ego.Heading = 2 * math.Pi }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := straightScene()
			tc.edit(&s)
			err := s.Validate()
			if tc.valid && err != nil {
				t.Errorf("in-domain scene rejected: %v", err)
			}
			if !tc.valid {
				if err == nil {
					t.Fatal("out-of-domain scene accepted")
				}
				if _, _, _, _, _, merr := s.Materialize(); merr == nil {
					t.Error("out-of-domain scene materialised")
				}
			}
		})
	}
}
