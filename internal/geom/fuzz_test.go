package geom

import (
	"math"
	"testing"
)

func FuzzNormalizeAngle(f *testing.F) {
	for _, seed := range []float64{0, math.Pi, -math.Pi, 100, -1e6, 1e-12} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, a float64) {
		// Beyond ~1e6 rad the double-precision reduction by 2π drifts from
		// math.Sin's high-precision argument reduction; angles that large
		// are out of scope for road geometry.
		if math.IsNaN(a) || math.IsInf(a, 0) || math.Abs(a) > 1e6 {
			t.Skip()
		}
		n := NormalizeAngle(a)
		if n <= -math.Pi-1e-9 || n > math.Pi+1e-9 {
			t.Fatalf("NormalizeAngle(%v) = %v out of (-π, π]", a, n)
		}
		if math.Abs(math.Sin(a)-math.Sin(n)) > 1e-6 {
			t.Fatalf("NormalizeAngle(%v) = %v changed the angle", a, n)
		}
	})
}

func FuzzBoxIntersectsSymmetry(f *testing.F) {
	f.Add(0.0, 0.0, 4.0, 2.0, 0.0, 3.0, 1.0, 4.0, 2.0, 0.5)
	f.Add(1.0, -2.0, 2.0, 2.0, 1.0, 1.5, -1.0, 3.0, 1.0, -0.7)
	f.Fuzz(func(t *testing.T, ax, ay, al, aw, ah, bx, by, bl, bw, bh float64) {
		for _, v := range []float64{ax, ay, al, aw, ah, bx, by, bl, bw, bh} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				t.Skip()
			}
		}
		a := NewBox(V(ax, ay), math.Abs(al), math.Abs(aw), ah)
		b := NewBox(V(bx, by), math.Abs(bl), math.Abs(bw), bh)
		if a.Intersects(b) != b.Intersects(a) {
			t.Fatalf("intersection not symmetric: %+v vs %+v", a, b)
		}
		// A box always intersects itself (if non-degenerate).
		if al != 0 && aw != 0 && !a.Intersects(a) {
			t.Fatalf("box does not intersect itself: %+v", a)
		}
	})
}
