package geom

import (
	"math/rand"
	"testing"
)

func TestPolygonArea(t *testing.T) {
	tests := []struct {
		name string
		give Polygon
		want float64
	}{
		{"empty", Polygon{}, 0},
		{"degenerate", Polygon{V(0, 0), V(1, 1)}, 0},
		{"unit square ccw", Polygon{V(0, 0), V(1, 0), V(1, 1), V(0, 1)}, 1},
		{"unit square cw", Polygon{V(0, 0), V(0, 1), V(1, 1), V(1, 0)}, 1},
		{"triangle", Polygon{V(0, 0), V(4, 0), V(0, 3)}, 6},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.give.Area(); !almostEq(got, tt.want, 1e-12) {
				t.Errorf("Area = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestPolygonContainsPoint(t *testing.T) {
	square := Polygon{V(0, 0), V(2, 0), V(2, 2), V(0, 2)}
	if !square.ContainsPoint(V(1, 1)) {
		t.Error("centre should be inside")
	}
	if square.ContainsPoint(V(3, 1)) {
		t.Error("outside point reported inside")
	}
	if square.ContainsPoint(V(-0.1, 1)) {
		t.Error("outside-left point reported inside")
	}
}

func TestPolygonCentroid(t *testing.T) {
	square := Polygon{V(0, 0), V(2, 0), V(2, 2), V(0, 2)}
	if got := square.Centroid(); !vecAlmostEq(got, V(1, 1), 1e-12) {
		t.Errorf("Centroid = %v", got)
	}
	if got := (Polygon{}).Centroid(); got != (Vec2{}) {
		t.Errorf("empty Centroid = %v", got)
	}
}

func TestConvexHull(t *testing.T) {
	pts := []Vec2{
		{0, 0}, {2, 0}, {2, 2}, {0, 2},
		{1, 1}, {0.5, 0.5}, {1.5, 0.2}, // interior points
	}
	hull := ConvexHull(pts)
	if len(hull) != 4 {
		t.Fatalf("hull size = %d, want 4 (%v)", len(hull), hull)
	}
	if got := hull.Area(); !almostEq(got, 4, 1e-12) {
		t.Errorf("hull area = %v, want 4", got)
	}
}

func TestConvexHullSmallInputs(t *testing.T) {
	if got := ConvexHull(nil); len(got) != 0 {
		t.Errorf("hull of nil = %v", got)
	}
	one := []Vec2{{1, 2}}
	if got := ConvexHull(one); len(got) != 1 || got[0] != one[0] {
		t.Errorf("hull of one point = %v", got)
	}
}

// Property: all input points lie inside (or on the boundary of) their convex
// hull, and the hull is convex (all cross products of consecutive edges have
// the same sign).
func TestConvexHullProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		n := 3 + rng.Intn(40)
		pts := make([]Vec2, n)
		for i := range pts {
			pts[i] = V(rng.Float64()*20-10, rng.Float64()*20-10)
		}
		hull := ConvexHull(pts)
		if len(hull) < 3 {
			continue // collinear degenerate input
		}
		// Convexity.
		for i := range hull {
			a := hull[i]
			b := hull[(i+1)%len(hull)]
			c := hull[(i+2)%len(hull)]
			if b.Sub(a).Cross(c.Sub(b)) < -1e-9 {
				t.Fatalf("iter %d: hull not convex at %d: %v", iter, i, hull)
			}
		}
		// Containment: every input point within hull (allow boundary slop by
		// inflating test with tiny epsilon via area comparison).
		for _, p := range pts {
			if !hullContains(hull, p, 1e-9) {
				t.Fatalf("iter %d: point %v outside hull %v", iter, p, hull)
			}
		}
	}
}

func hullContains(hull Polygon, p Vec2, eps float64) bool {
	for i := range hull {
		a := hull[i]
		b := hull[(i+1)%len(hull)]
		if b.Sub(a).Cross(p.Sub(a)) < -eps {
			return false
		}
	}
	return true
}

func TestSegmentsIntersect(t *testing.T) {
	tests := []struct {
		name           string
		a1, a2, b1, b2 Vec2
		want           bool
	}{
		{"crossing", V(0, 0), V(2, 2), V(0, 2), V(2, 0), true},
		{"parallel apart", V(0, 0), V(2, 0), V(0, 1), V(2, 1), false},
		{"touching endpoint", V(0, 0), V(1, 1), V(1, 1), V(2, 0), true},
		{"collinear overlapping", V(0, 0), V(2, 0), V(1, 0), V(3, 0), true},
		{"collinear disjoint", V(0, 0), V(1, 0), V(2, 0), V(3, 0), false},
		{"T shape", V(0, 0), V(2, 0), V(1, 0), V(1, 2), true},
		{"near miss", V(0, 0), V(2, 0), V(1, 0.01), V(1, 2), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := SegmentsIntersect(tt.a1, tt.a2, tt.b1, tt.b2); got != tt.want {
				t.Errorf("SegmentsIntersect = %v, want %v", got, tt.want)
			}
			if got := SegmentsIntersect(tt.b1, tt.b2, tt.a1, tt.a2); got != tt.want {
				t.Errorf("SegmentsIntersect (swapped) = %v, want %v", got, tt.want)
			}
		})
	}
}
