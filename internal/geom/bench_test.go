package geom

import (
	"math"
	"testing"
)

func BenchmarkBoxIntersects(b *testing.B) {
	x := NewBox(V(0, 0), 4.7, 2.0, 0.2)
	y := NewBox(V(3, 1), 4.7, 2.0, -0.4)
	for i := 0; i < b.N; i++ {
		x.Intersects(y)
	}
}

func BenchmarkBoxIntersectsBroadPhaseReject(b *testing.B) {
	x := NewBox(V(0, 0), 4.7, 2.0, 0.2)
	y := NewBox(V(100, 0), 4.7, 2.0, -0.4)
	for i := 0; i < b.N; i++ {
		x.Intersects(y)
	}
}

func BenchmarkConvexHull(b *testing.B) {
	pts := make([]Vec2, 64)
	for i := range pts {
		a := float64(i) * 0.7
		pts[i] = V(math.Cos(a)*float64(i%7), math.Sin(a)*float64(i%5))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ConvexHull(pts)
	}
}
