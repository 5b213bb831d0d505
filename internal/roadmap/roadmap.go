// Package roadmap models the drivable areas 𝓜 that constrain the ego
// vehicle's escape routes. Two map families cover every scenario in the
// paper's evaluation: straight multi-lane roads (the five NHTSA typologies)
// and a ring road (the roundabout extension used with the RIP agent).
package roadmap

import (
	"fmt"
	"math"

	"repro/internal/geom"
)

// Map exposes drivability queries for reachability analysis and planning.
type Map interface {
	// Drivable reports whether a point lies on drivable surface.
	Drivable(p geom.Vec2) bool
	// DrivableBox reports whether a vehicle footprint is fully on drivable
	// surface. Implementations may approximate with corner+centre checks.
	DrivableBox(b geom.Box) bool
	// Bounds returns an axis-aligned bounding box of the drivable area.
	Bounds() (min, max geom.Vec2)
}

// PreparedMap is implemented by map families that can judge a prepared
// footprint from its cached geometry (AABB, corners) without recomputing
// it. The reach-tube hot path type-asserts once per tube and falls back to
// DrivableBox for maps that do not implement it. DrivablePrepared must
// decide exactly as DrivableBox on the underlying box.
type PreparedMap interface {
	Map
	DrivablePrepared(b *geom.PreparedBox) bool
}

// StraightRoad is a straight multi-lane road running along the +x axis.
// Lane 0 occupies y ∈ [0, LaneWidth); lane i spans [i·W, (i+1)·W).
type StraightRoad struct {
	NumLanes  int
	LaneWidth float64
	XMin      float64
	XMax      float64
}

var _ PreparedMap = (*StraightRoad)(nil)

// NewStraightRoad constructs a straight road. It panics only via Validate at
// construction call sites; use Validate to check parameters.
func NewStraightRoad(lanes int, laneWidth, xMin, xMax float64) (*StraightRoad, error) {
	r := &StraightRoad{NumLanes: lanes, LaneWidth: laneWidth, XMin: xMin, XMax: xMax}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return r, nil
}

// MustStraightRoad is NewStraightRoad that panics on invalid parameters; for
// use in tests and scenario tables with known-good constants.
func MustStraightRoad(lanes int, laneWidth, xMin, xMax float64) *StraightRoad {
	r, err := NewStraightRoad(lanes, laneWidth, xMin, xMax)
	if err != nil {
		panic(err)
	}
	return r
}

// Validate reports whether the road is well-formed.
func (r *StraightRoad) Validate() error {
	switch {
	case r.NumLanes < 1:
		return fmt.Errorf("roadmap: need at least one lane, got %d", r.NumLanes)
	case r.LaneWidth <= 0:
		return fmt.Errorf("roadmap: lane width must be positive, got %v", r.LaneWidth)
	case r.XMax <= r.XMin:
		return fmt.Errorf("roadmap: empty extent [%v, %v]", r.XMin, r.XMax)
	}
	return nil
}

// Width returns the total road width.
func (r *StraightRoad) Width() float64 { return float64(r.NumLanes) * r.LaneWidth }

// Drivable implements Map.
func (r *StraightRoad) Drivable(p geom.Vec2) bool {
	return p.X >= r.XMin && p.X <= r.XMax && p.Y >= 0 && p.Y <= r.Width()
}

// DrivableBox implements Map. For a straight road the footprint is drivable
// iff its AABB lies inside the road rectangle; we relax the longitudinal
// bounds so vehicles may exit at the far end of the modelled segment.
func (r *StraightRoad) DrivableBox(b geom.Box) bool {
	min, max := b.AABB()
	return min.Y >= 0 && max.Y <= r.Width() && max.X >= r.XMin && min.X <= r.XMax
}

// DrivablePrepared implements PreparedMap using the cached AABB.
func (r *StraightRoad) DrivablePrepared(b *geom.PreparedBox) bool {
	return b.Min.Y >= 0 && b.Max.Y <= r.Width() && b.Max.X >= r.XMin && b.Min.X <= r.XMax
}

// Bounds implements Map.
func (r *StraightRoad) Bounds() (geom.Vec2, geom.Vec2) {
	return geom.V(r.XMin, 0), geom.V(r.XMax, r.Width())
}

// LaneCenter returns the y-coordinate of the centre of lane i.
func (r *StraightRoad) LaneCenter(i int) float64 {
	return (float64(i) + 0.5) * r.LaneWidth
}

// LaneAt returns the lane index containing y, and whether y is on the road.
func (r *StraightRoad) LaneAt(y float64) (int, bool) {
	if y < 0 || y > r.Width() {
		return 0, false
	}
	i := int(y / r.LaneWidth)
	if i >= r.NumLanes {
		i = r.NumLanes - 1
	}
	return i, true
}

// RingRoad is an annular drivable region: the roundabout typology used in the
// paper's §V-C generalisation study. Headings follow the counter-clockwise
// tangent direction.
type RingRoad struct {
	Center geom.Vec2
	InnerR float64
	OuterR float64
}

var _ PreparedMap = (*RingRoad)(nil)

// NewRingRoad constructs a ring road.
func NewRingRoad(center geom.Vec2, innerR, outerR float64) (*RingRoad, error) {
	if innerR < 0 || outerR <= innerR {
		return nil, fmt.Errorf("roadmap: invalid ring radii inner=%v outer=%v", innerR, outerR)
	}
	return &RingRoad{Center: center, InnerR: innerR, OuterR: outerR}, nil
}

// Drivable implements Map.
func (r *RingRoad) Drivable(p geom.Vec2) bool {
	d := p.Dist(r.Center)
	return d >= r.InnerR && d <= r.OuterR
}

// DrivableBox implements Map, approximated by checking the footprint centre
// and four corners.
func (r *RingRoad) DrivableBox(b geom.Box) bool {
	if !r.Drivable(b.Center) {
		return false
	}
	for _, c := range b.Corners() {
		if !r.Drivable(c) {
			return false
		}
	}
	return true
}

// DrivablePrepared implements PreparedMap, deriving the corners from the
// cached axes (they are not stored in the prepared box).
func (r *RingRoad) DrivablePrepared(b *geom.PreparedBox) bool {
	if !r.Drivable(b.Box.Center) {
		return false
	}
	var cs [4]geom.Vec2
	b.CornersInto(&cs)
	for _, c := range cs {
		if !r.Drivable(c) {
			return false
		}
	}
	return true
}

// Bounds implements Map.
func (r *RingRoad) Bounds() (geom.Vec2, geom.Vec2) {
	return r.Center.Sub(geom.V(r.OuterR, r.OuterR)), r.Center.Add(geom.V(r.OuterR, r.OuterR))
}

// MidRadius returns the radius of the centreline of the ring.
func (r *RingRoad) MidRadius() float64 { return (r.InnerR + r.OuterR) / 2 }

// PoseAt returns the position and tangent heading at the given polar angle on
// a circle of the given radius (counter-clockwise travel).
func (r *RingRoad) PoseAt(radius, angle float64) (geom.Vec2, float64) {
	s, c := math.Sincos(angle)
	pos := r.Center.Add(geom.V(radius*c, radius*s))
	return pos, geom.NormalizeAngle(angle + math.Pi/2)
}

// AngleOf returns the polar angle of p around the ring centre.
func (r *RingRoad) AngleOf(p geom.Vec2) float64 { return p.Sub(r.Center).Angle() }

// Key is a map's identity by value, for caches keyed on road geometry: the
// scene codec materialises a fresh map object per request, so pointer
// identity never matches across requests. Two maps have equal keys iff they
// are the same family with equal parameters.
type Key struct {
	kind     uint8 // 0 none, 1 straight, 2 ring
	straight StraightRoad
	ring     RingRoad
}

// KeyOf returns m's by-value key. Only the stock map families are
// recognised; for any other Map it reports false.
func KeyOf(m Map) (Key, bool) {
	switch r := m.(type) {
	case *StraightRoad:
		return Key{kind: 1, straight: *r}, true
	case *RingRoad:
		return Key{kind: 2, ring: *r}, true
	}
	return Key{}, false
}
