package reach

import (
	"repro/internal/actor"
	"repro/internal/geom"
)

// Obstacles holds the predicted footprints of every actor at every time
// slice of a reach-tube computation, organised per actor so that the
// counterfactual queries of STI (remove one actor, remove all) are cheap.
type Obstacles struct {
	// boxes[i][s] is actor i's footprint during slice s, prepared once so
	// the inner SAT tests of every tube computation reuse the cached axes,
	// bounding radius and AABB.
	boxes     [][]geom.PreparedBox
	numSlices int
}

// BuildObstacles resamples each actor's trajectory at the reach-tube slice
// interval and precomputes footprints. trajs[i] must correspond to
// actors[i]; trajectories sampled at a different interval are resampled by
// nearest-time lookup.
func BuildObstacles(actors []*actor.Actor, trajs []actor.Trajectory, cfg Config) *Obstacles {
	n := cfg.NumSlices()
	o := &Obstacles{
		boxes:     make([][]geom.PreparedBox, len(actors)),
		numSlices: n,
	}
	for i, a := range actors {
		tr := trajs[i]
		if tr.Dt != cfg.SliceDt {
			tr = tr.Resample(cfg.SliceDt, n)
		}
		bs := make([]geom.PreparedBox, n+1)
		for s := 0; s <= n; s++ {
			bs[s] = a.FootprintAt(tr.StateAt(s)).Prepare()
		}
		o.boxes[i] = bs
	}
	return o
}

// NumActors returns the number of actors in the set.
func (o *Obstacles) NumActors() int { return len(o.boxes) }

// Collide returns a CollisionFunc that tests against every actor.
func (o *Obstacles) Collide() CollisionFunc { return o.collideSkipping(-1) }

// CollideWithout returns a CollisionFunc for the counterfactual world with
// actor index i removed (the paper's X^{/i}).
func (o *Obstacles) CollideWithout(i int) CollisionFunc { return o.collideSkipping(i) }

func (o *Obstacles) collideSkipping(skip int) CollisionFunc {
	return func(b *geom.PreparedBox, slice int) bool {
		if slice > o.numSlices {
			slice = o.numSlices
		}
		for i, bs := range o.boxes {
			if i == skip {
				continue
			}
			if b.Intersects(&bs[slice]) {
				return true
			}
		}
		return false
	}
}

// CollideRecording returns a CollisionFunc over every actor that
// additionally marks exclusive blockers: whenever a queried footprint
// intersects exactly one actor, that actor's entry in marks is set. An
// actor left unmarked after a full tube computation never changed a single
// collision verdict on its own, so removing it cannot alter the
// (deterministic) expansion: its counterfactual tube T^{/i} equals the base
// tube T exactly. sti.Evaluator uses this to elide counterfactual
// computations for non-blocking actors.
//
// The test stops early once two distinct actors intersect (the verdict is
// true and exclusivity is impossible), so the overhead compared to Collide
// is confined to footprints already in contact.
func (o *Obstacles) CollideRecording(marks []bool) CollisionFunc {
	return func(b *geom.PreparedBox, slice int) bool {
		if slice > o.numSlices {
			slice = o.numSlices
		}
		hit := -1
		for i := range o.boxes {
			if b.Intersects(&o.boxes[i][slice]) {
				if hit >= 0 {
					return true // second blocker: no exclusive mark
				}
				hit = i
			}
		}
		if hit >= 0 {
			marks[hit] = true
			return true
		}
		return false
	}
}

// maskHits scans the actors whose slice-s footprint collides with b and
// strikes each blocker's victims from the possible-world mask: a hit by
// actor i removes every world actor i is present in, leaving at most world
// /i (bit 1+i). The scan stops once no world survives — by then every
// world has either pruned the footprint or never examined it. Single-word
// (≤63 actors) variant; maskHitsSeg is the segmented analogue.
func (o *Obstacles) maskHits(b *geom.PreparedBox, slice int, possible uint64) uint64 {
	if slice > o.numSlices {
		slice = o.numSlices
	}
	for i := range o.boxes {
		if b.Intersects(&o.boxes[i][slice]) {
			possible &= uint64(1) << uint(1+i)
			if possible == 0 {
				return 0
			}
		}
	}
	return possible
}

// strikeOnly applies a blocker's world strike to a segmented mask: keep
// only world bit `bit` (if it was still possible), zero everything else.
// This is the word-indexed spelling of the single-word
// `possible &= 1 << bit`; it reports whether any world survives.
func strikeOnly(possible []uint64, bit int) bool {
	w, off := bit>>6, uint(bit&63)
	keep := possible[w] & (uint64(1) << off)
	clear(possible)
	possible[w] = keep
	return keep != 0
}

// maskHitsSeg is maskHits over a segmented possible-world mask, mutated in
// place. It reports whether any world survives the scan.
func (o *Obstacles) maskHitsSeg(b *geom.PreparedBox, slice int, possible []uint64) bool {
	if slice > o.numSlices {
		slice = o.numSlices
	}
	for i := range o.boxes {
		if b.Intersects(&o.boxes[i][slice]) {
			if !strikeOnly(possible, 1+i) {
				return false
			}
		}
	}
	return true
}

// slicePair returns the two obstacle slices a sweep entering slice tests —
// slice and slice+1, each clamped to the horizon.
func (o *Obstacles) slicePair(slice int) (int, int) {
	return min(slice, o.numSlices), min(slice+1, o.numSlices)
}

// activeInto appends to act the actors whose footprint during slice s or
// s+1 could intersect an ego footprint inside the window [min, max], judged
// by AABB overlap. The shared expansion derives the window from the
// frontier's swept envelope each slice, so the per-candidate collision scan
// (maskHitsActive) only visits actors near the tube instead of all of them.
// The filter is conservative: a rejected actor's AABB is disjoint from every
// footprint the slice can produce, so it cannot change any verdict.
func (o *Obstacles) activeInto(act []int32, min, max geom.Vec2, slice int) []int32 {
	s0, s1 := o.slicePair(slice)
	for i := range o.boxes {
		a := &o.boxes[i][s0]
		if a.Min.X <= max.X && min.X <= a.Max.X && a.Min.Y <= max.Y && min.Y <= a.Max.Y {
			act = append(act, int32(i))
			continue
		}
		a = &o.boxes[i][s1]
		if a.Min.X <= max.X && min.X <= a.Max.X && a.Min.Y <= max.Y && min.Y <= a.Max.Y {
			act = append(act, int32(i))
		}
	}
	return act
}

// maskHitsPath is the per-footprint collision scan of the shared
// expansion's path sweep: one pass over the broad-phase survivors in act,
// testing each actor's slice-s and slice-(s+1) footprints (the same pair
// pathOK tests) with an inlined AABB rejection before the SAT call. Whether
// an actor hits at s, at s+1, or both, the world-mask effect is the same
// single intersection (&= its own world bit), so folding the two scans into
// one preserves every per-world verdict. Single-word variant;
// maskHitsPathSeg is the segmented analogue.
func (o *Obstacles) maskHitsPath(b *geom.PreparedBox, slice int, possible uint64, act []int32) uint64 {
	s0, s1 := o.slicePair(slice)
	for _, i := range act {
		bs := o.boxes[i]
		a := &bs[s0]
		hit := b.Min.X <= a.Max.X && a.Min.X <= b.Max.X &&
			b.Min.Y <= a.Max.Y && a.Min.Y <= b.Max.Y && b.Intersects(a)
		if !hit {
			a = &bs[s1]
			hit = b.Min.X <= a.Max.X && a.Min.X <= b.Max.X &&
				b.Min.Y <= a.Max.Y && a.Min.Y <= b.Max.Y && b.Intersects(a)
		}
		if hit {
			possible &= uint64(1) << uint(1+i)
			if possible == 0 {
				return 0
			}
		}
	}
	return possible
}

// maskHitsPathSeg is maskHitsPath over a segmented possible-world mask,
// mutated in place. It reports whether any world survives the sweep.
func (o *Obstacles) maskHitsPathSeg(b *geom.PreparedBox, slice int, possible []uint64, act []int32) bool {
	s0, s1 := o.slicePair(slice)
	for _, i := range act {
		bs := o.boxes[i]
		a := &bs[s0]
		hit := b.Min.X <= a.Max.X && a.Min.X <= b.Max.X &&
			b.Min.Y <= a.Max.Y && a.Min.Y <= b.Max.Y && b.Intersects(a)
		if !hit {
			a = &bs[s1]
			hit = b.Min.X <= a.Max.X && a.Min.X <= b.Max.X &&
				b.Min.Y <= a.Max.Y && a.Min.Y <= b.Max.Y && b.Intersects(a)
		}
		if hit {
			if !strikeOnly(possible, 1+int(i)) {
				return false
			}
		}
	}
	return true
}

// BoxAt returns actor i's footprint at slice s (clamped to the horizon).
func (o *Obstacles) BoxAt(i, s int) geom.Box {
	if s > o.numSlices {
		s = o.numSlices
	}
	return o.boxes[i][s].Box
}
