package reach

import (
	"math"
	"math/bits"

	"repro/internal/geom"
	"repro/internal/roadmap"
	"repro/internal/telemetry"
	"repro/internal/vehicle"
)

// Telemetry for the shared expansion (flushed once per call, like
// ComputeScratch's counters).
var (
	telSharedComputes = telemetry.NewCounter("reach.shared.computes")
	telSharedStates   = telemetry.NewCounter("reach.shared.states_expanded")
	telSharedWorlds   = telemetry.NewHistogram("reach.shared.worlds", telemetry.LinearBuckets(0, 8, 18))
)

// SharedTubes is the result of ComputeCounterfactuals: every reach-tube
// volume the STI per-actor evaluation needs (Eq. 4), derived from a single
// expansion instead of one expansion per counterfactual world.
type SharedTubes struct {
	// BaseVolume is |T|, the tube volume with every actor present —
	// bit-for-bit the volume ComputeScratch returns with Obstacles.Collide.
	BaseVolume float64
	// WithoutVolume[i] is |T^{/i}| for each actor i — bit-for-bit the
	// volume ComputeScratch returns with CollideWithout(i).
	WithoutVolume []float64
	// MaskWords is the number of 64-bit words in each state's world mask:
	// ceil((1+NumActors)/64). 1 selects the single-word loop.
	MaskWords int
	// States is the number of masked states expanded (diagnostics).
	States int
}

// maskedState is one state of the single-word shared frontier: the kinematic
// state plus the set of counterfactual worlds in which it is a live,
// dedup-winning member of the tube (bit 0 = base world, bit 1+i = world
// without actor i).
type maskedState struct {
	st vehicle.State
	w  uint64
}

// anyNonzero reports whether any word of mask has a bit set.
func anyNonzero(mask []uint64) bool {
	for _, v := range mask {
		if v != 0 {
			return true
		}
	}
	return false
}

// anyUncapped reports whether mask has a live bit outside capMask — i.e.
// whether any world of this parent can still accept candidates this slice.
func anyUncapped(mask, capMask []uint64) bool {
	for w := range mask {
		if mask[w]&^capMask[w] != 0 {
			return true
		}
	}
	return false
}

// fullMask sets dst to the mask with the low numWorlds bits set — the
// segmented analogue of the single-word `^0 >> (64-numWorlds)` all-worlds
// mask. dst may be wider than ceil(numWorlds/64); excess words are zeroed
// (the differential tests force extra words to exercise the word loops on
// small scenes).
func fullMask(dst []uint64, numWorlds int) {
	for w := range dst {
		lo := w * 64
		switch {
		case numWorlds >= lo+64:
			dst[w] = ^uint64(0)
		case numWorlds <= lo:
			dst[w] = 0
		default:
			dst[w] = ^uint64(0) >> (64 - uint(numWorlds-lo))
		}
	}
}

// ComputeCounterfactuals expands the reach-tubes of every counterfactual
// world the STI per-actor evaluation needs — the base world (all actors)
// and each single-actor-removed world /i — in ONE pass over the state
// space, instead of the N+1 independent ComputeScratch calls of the naive
// Algorithm 1 loop.
//
// Each frontier state carries a world mask: the set of worlds in which the
// state is a live, dedup-winning member of that world's expansion. A
// candidate transition is integrated and collision-swept once; the actors
// blocking its path determine which worlds it survives in (no blocker →
// every world; exactly actor i → only world /i; two or more distinct
// blockers → none), and per-world dedup and the MaxStates cap are replayed
// exactly through the claimed-key mask and per-world slice counters.
// Because the per-world decisions — expansion order, ε-dedup claims, path
// pruning, cap cut-offs, grid cells marked — are replicated exactly (see
// DESIGN.md §8 for the induction), the resulting volumes are bit-for-bit
// equal to the per-world ComputeScratch tubes, not merely equal up to dedup
// jitter.
//
// The mask is segmented: ceil((1+n)/64) words of 64 bits, so EVERY actor in
// the scene gets a dedicated world. There is one loop per mask width:
// warmSingleWord (at most 63 actors) carries scalar masks, warmSegmented
// runs word-indexed loops. The two make identical per-world decisions —
// bit w of word w/64 is treated exactly as bit w of the single word — so
// the choice is invisible in the results; the scalar loop exists because
// the word-indexed one is measurably slower on one-word scenes. Both loops
// also serve ComputeCounterfactualsWarm; this cold entry point runs them
// with no WarmState.
//
// Cost: one expansion over the union of the per-world tubes (≈ the largest
// single tube) with one collision sweep per candidate, making the STI
// evaluation ~O(1) in the number of actors rather than O(N).
//
// scr may be nil; as with ComputeScratch the result is identical either
// way.
func ComputeCounterfactuals(m roadmap.Map, obs *Obstacles, ego vehicle.State, cfg Config, scr *Scratch) SharedTubes {
	return expand(m, obs, ego, cfg, scr, nil)
}

// expand runs one shared expansion on the loop for its mask width. ws is
// nil on the cold path.
func expand(m roadmap.Map, obs *Obstacles, ego vehicle.State, cfg Config, scr *Scratch, ws *WarmState) SharedTubes {
	n := obs.NumActors()
	numWorlds := 1 + n
	words := (numWorlds + 63) / 64
	res := SharedTubes{WithoutVolume: make([]float64, n), MaskWords: words}
	if scr == nil {
		scr = NewScratch()
	}
	telSharedComputes.Inc()
	telSharedWorlds.Observe(float64(numWorlds))
	if words == 1 {
		warmSingleWord(m, obs, ego, cfg, scr, ws, &res, numWorlds)
	} else {
		warmSegmented(m, obs, ego, cfg, scr, ws, &res, numWorlds, words)
	}
	return res
}

// tally turns the per-world marked-cell counts into volumes — the same
// cell count × CellSize² expression ComputeScratch evaluates, so each
// world's volume is bitwise what its own ComputeScratch tube reports — and
// flushes the expansion's counters.
func (res *SharedTubes) tally(volCount []int, cellSize float64, states, propagations, pruned int) {
	res.BaseVolume = float64(volCount[0]) * cellSize * cellSize
	for i := range res.WithoutVolume {
		res.WithoutVolume[i] = float64(volCount[1+i]) * cellSize * cellSize
	}
	res.States = states
	telSharedStates.Add(int64(states))
	telPropagations.Add(int64(propagations))
	telPruned.Add(int64(pruned))
}

// envelope bounds a frontier for the per-slice broad phase: the AABB of its
// positions and its top speed. The loops grow it while appending the next
// frontier, so the broad phase needs no extra pass over the frontier.
type envelope struct {
	min, max geom.Vec2
	vmax     float64
}

func newEnvelope() envelope {
	inf := math.Inf(1)
	return envelope{min: geom.V(inf, inf), max: geom.V(-inf, -inf), vmax: -inf}
}

func (e *envelope) add(s *vehicle.State) {
	if s.Pos.X < e.min.X {
		e.min.X = s.Pos.X
	}
	if s.Pos.Y < e.min.Y {
		e.min.Y = s.Pos.Y
	}
	if s.Pos.X > e.max.X {
		e.max.X = s.Pos.X
	}
	if s.Pos.Y > e.max.Y {
		e.max.Y = s.Pos.Y
	}
	if s.Speed > e.vmax {
		e.vmax = s.Speed
	}
}

// active refills act with the actors that can touch a footprint swept from
// the enveloped frontier this slice. Every such footprint stays within the
// frontier's AABB grown by the worst-case travel (speed is clamped to
// [0, MaxSpeed] and gains at most MaxAccel·SliceDt) plus the ego
// footprint's bounding radius; an actor outside that window cannot change
// any verdict, so the per-candidate scans skip it.
func (e *envelope) active(act []int32, obs *Obstacles, cfg *Config, radius float64, slice int) []int32 {
	travel := math.Min(e.vmax+cfg.Params.MaxAccel*cfg.SliceDt, cfg.Params.MaxSpeed) * cfg.SliceDt
	margin := travel + radius + 1e-6
	return obs.activeInto(act[:0],
		geom.V(e.min.X-margin, e.min.Y-margin), geom.V(e.max.X+margin, e.max.Y+margin), slice)
}

// expander holds what a shared expansion's loop needs beyond its frontier
// and tallies: the map and obstacles, the fixed control set with its
// steering tangents, the reused sweep footprint, the current slice's
// broad-phase survivors, and either the session's WarmState (warm) or a
// path buffer candidates are integrated into (cold, ws == nil).
type expander struct {
	m        roadmap.Map
	pm       roadmap.PreparedMap
	obs      *Obstacles
	cfg      Config
	ws       *WarmState
	controls []vehicle.Control
	tans     []float64
	path     []pathState
	pb       *geom.PreparedBox
	act      []int32
}

// newExpander prepares the expansion rooted at the footprint egoPb. The
// control set is fixed for the whole expansion, so each control's steering
// tangent is computed once (see vehicle.Params.StepTan); the sweep
// footprint is seeded from the root so its half-extents and bounding radius
// are prepared exactly once.
func newExpander(m roadmap.Map, pm roadmap.PreparedMap, obs *Obstacles, cfg Config, ws *WarmState, egoPb geom.PreparedBox, act []int32) expander {
	pb := egoPb
	x := expander{m: m, pm: pm, obs: obs, cfg: cfg, ws: ws, controls: cfg.controls(), pb: &pb, act: act}
	x.tans = make([]float64, len(x.controls))
	for i, u := range x.controls {
		x.tans[i] = math.Tan(u.Steer)
	}
	if ws == nil {
		x.path = make([]pathState, cfg.SubSteps)
	} else {
		ws.memo.ensureControls(len(x.controls), cfg.SubSteps)
	}
	return x
}

// headingTrig computes a parent's heading sincos once, on first use: it
// only feeds integration, which a fully memoized parent never runs.
type headingTrig struct {
	sin, cos float64
	ok       bool
}

func (t *headingTrig) of(heading float64) (float64, float64) {
	if !t.ok {
		t.sin, t.cos = math.Sincos(heading)
		t.ok = true
	}
	return t.sin, t.cos
}

// candidate returns control ui's transition from parent f: its endpoint,
// dedup key and sub-step path. Cold, the path is integrated into the
// expander's buffer. Warm, all three live in memo slot ci and are
// integrated only when the parent's block is new (existed == false).
func (x *expander) candidate(f *vehicle.State, trig *headingTrig, ui int, ci int32, existed bool) (vehicle.State, stateKey, []pathState) {
	if x.ws == nil {
		sin0, cos0 := trig.of(f.Heading)
		s2, nsub := x.cfg.integrate(*f, sin0, cos0, x.controls[ui], x.tans[ui], x.path)
		return s2, x.cfg.key(s2), x.path[:nsub]
	}
	me := &x.ws.memo.ctrls[ci]
	path := x.ws.memo.ctrlPath(ci)
	if !existed {
		sin0, cos0 := trig.of(f.Heading)
		var nsub int
		me.s2, nsub = x.cfg.integrate(*f, sin0, cos0, x.controls[ui], x.tans[ui], path)
		me.nsub = uint8(nsub)
		me.skey = x.cfg.key(me.s2)
	}
	return me.s2, me.skey, path[:me.nsub]
}

// sweep is the cold path sweep of a single-word candidate. One footprint
// sweep decides every world: drivability is world-independent, and each
// blocking actor strikes the worlds it is present in. The sweep stops as
// soon as no candidate world survives — by then every world has either
// pruned the path or never examined it.
func (x *expander) sweep(path []pathState, slice int, possible uint64) uint64 {
	for j := range path {
		ps := &path[j]
		x.pb.MoveTo(ps.st.Pos, ps.st.Heading, ps.sin, ps.cos)
		if !drivable(x.m, x.pm, x.pb) {
			return 0
		}
		if possible = x.obs.maskHitsPath(x.pb, slice, possible, x.act); possible == 0 {
			return 0
		}
	}
	return possible
}

// sweepSeg is sweep over a segmented mask, mutated in place; it reports
// whether any world survives.
func (x *expander) sweepSeg(path []pathState, slice int, possible []uint64) bool {
	for j := range path {
		ps := &path[j]
		x.pb.MoveTo(ps.st.Pos, ps.st.Heading, ps.sin, ps.cos)
		if !drivable(x.m, x.pm, x.pb) || !x.obs.maskHitsPathSeg(x.pb, slice, possible, x.act) {
			return false
		}
	}
	return true
}

// warmSingleWord is the shared expansion of scenes with at most 63 actors:
// every world mask fits one uint64, so the inner loops carry scalar masks.
// With ws == nil it is the cold expansion. With a WarmState the candidate
// memo supplies integrations and path-sweep verdicts, and every
// bookkeeping decision (claims, caps, marks, counters) is replayed
// identically, so the volumes are bitwise the cold expansion's.
func warmSingleWord(m roadmap.Map, obs *Obstacles, ego vehicle.State, cfg Config, scr *Scratch, ws *WarmState, res *SharedTubes, numWorlds int) {
	allMask := ^uint64(0) >> (64 - uint(numWorlds))
	scr.resetShared(numWorlds, 1)
	cells := &scr.cells
	claimed := &scr.claimed
	volCount := scr.wvol
	sliceCount := scr.wslice
	numSlices := cfg.NumSlices()
	pm, _ := m.(roadmap.PreparedMap)

	// Root: each world checks the ego's starting footprint on its own
	// obstacle set (drivability, then one collide at slice 0). It is
	// computed every tick — one footprint is not worth memoizing.
	egoPb := cfg.Params.Footprint(ego).Prepare()
	live := uint64(0)
	if drivable(m, pm, &egoPb) {
		live = obs.maskHits(&egoPb, 0, allMask)
	}
	if live == 0 {
		res.tally(volCount, cfg.CellSize, 0, 0, 0)
		return
	}

	x := newExpander(m, pm, obs, cfg, ws, egoPb, scr.mactive)
	frontier := append(scr.mfrontier[:0], maskedState{st: ego, w: live})
	next := scr.mnext[:0]
	env := newEnvelope()
	env.add(&ego)
	ws.startFrontier()
	states, propagations, pruned := 0, 0, 0

	for slice := 0; slice < numSlices && len(frontier) > 0; slice++ {
		claimed.reset(1)
		clear(sliceCount)
		x.act = env.active(x.act, obs, &cfg, egoPb.Radius, slice)
		env = newEnvelope()
		// capMask accumulates worlds whose per-slice expansion hit
		// MaxStates: that world's own tube breaks out of the slice there, so
		// every later candidate is invisible to it.
		capMask := uint64(0)
		next = next[:0]
		for fi := range frontier {
			f := &frontier[fi]
			if f.w&^capMask == 0 {
				continue // every world of this parent already capped
			}
			base, existed := ws.parent(fi, &f.st, slice)
			var trig headingTrig
			for ui := range x.controls {
				ci := base + int32(ui)
				s2, k, path := x.candidate(&f.st, &trig, ui, ci, existed)
				propagations++
				// possible = worlds whose own expansion reaches this
				// candidate and has not already ε-visited its key. Dedup
				// runs before the sweep: a duplicate is discarded the same
				// whether or not its path would have been pruned.
				possible := f.w &^ capMask
				cb, slot := claimed.probe(k)
				possible &^= cb
				if possible == 0 {
					continue
				}
				if ws == nil {
					possible = x.sweep(path, slice, possible)
				} else {
					switch me := x.verdict(ci, path, slice); me.verdict {
					case verdictOnly:
						possible &= uint64(1) << uint(1+me.hits[0])
					case verdictZero, verdictZeroOpaque, verdictOffroad:
						possible = 0
					}
				}
				if possible == 0 {
					pruned++
					continue
				}
				claimed.orAt(slot, k, possible)
				for b := cells.orAt(-1, cellKey(s2.Pos, cfg.CellSize), possible); b != 0; b &= b - 1 {
					volCount[bits.TrailingZeros64(b)]++
				}
				for b := possible; b != 0; b &= b - 1 {
					w := bits.TrailingZeros64(b)
					sliceCount[w]++
					if sliceCount[w] >= cfg.MaxStates {
						capMask |= uint64(1) << uint(w)
					}
				}
				next = append(next, maskedState{st: s2, w: possible})
				env.add(&s2)
				ws.produced(ci)
				states++
			}
		}
		frontier, next = next, frontier[:0]
		ws.advance()
	}
	// Hand the (possibly re-grown) slices back for the next reuse.
	scr.mfrontier, scr.mnext, scr.mactive = frontier, next, x.act
	res.tally(volCount, cfg.CellSize, states, propagations, pruned)
}

// warmSegmented is the shared expansion of scenes with 64 or more actors:
// world masks span `words` uint64s and every loop over a scalar mask
// becomes a loop over its words. Each step mirrors warmSingleWord line for
// line — the per-world decision for world w reads and writes bit w%64 of
// word w/64, exactly the bit the single-word loop would use had it been
// wide enough — so the induction argument of DESIGN.md §8 carries over per
// word, warm or cold.
func warmSegmented(m roadmap.Map, obs *Obstacles, ego vehicle.State, cfg Config, scr *Scratch, ws *WarmState, res *SharedTubes, numWorlds, words int) {
	scr.resetShared(numWorlds, words)
	cells := &scr.cells
	claimed := &scr.claimed
	volCount := scr.wvol
	sliceCount := scr.wslice
	numSlices := cfg.NumSlices()
	pm, _ := m.(roadmap.PreparedMap)

	// Root: all worlds start live; drivability and the slice-0 collision
	// sweep strike the same worlds each world's own root check rejects.
	egoPb := cfg.Params.Footprint(ego).Prepare()
	possible := scr.sposs
	fullMask(possible, numWorlds)
	if !drivable(m, pm, &egoPb) || !obs.maskHitsSeg(&egoPb, 0, possible) {
		res.tally(volCount, cfg.CellSize, 0, 0, 0)
		return
	}

	x := newExpander(m, pm, obs, cfg, ws, egoPb, scr.mactive)
	// The frontier is struct-of-arrays: states in fstates, masks in the
	// flat stride-`words` arena fmasks (state fi owns fmasks[fi*words :
	// (fi+1)*words]), so growing it never allocates per-state slices.
	fstates := append(scr.sfstates[:0], ego)
	fmasks := append(scr.sfmasks[:0], possible...)
	nstates := scr.snstates[:0]
	nmasks := scr.snmasks[:0]
	capMask := scr.scap
	newBits := scr.snew
	env := newEnvelope()
	env.add(&ego)
	ws.startFrontier()
	states, propagations, pruned := 0, 0, 0

	for slice := 0; slice < numSlices && len(fstates) > 0; slice++ {
		claimed.reset(words)
		clear(sliceCount)
		clear(capMask)
		x.act = env.active(x.act, obs, &cfg, egoPb.Radius, slice)
		env = newEnvelope()
		nstates = nstates[:0]
		nmasks = nmasks[:0]
		for fi := range fstates {
			fmask := fmasks[fi*words : fi*words+words]
			if !anyUncapped(fmask, capMask) {
				continue // every world of this parent already capped
			}
			base, existed := ws.parent(fi, &fstates[fi], slice)
			var trig headingTrig
			for ui := range x.controls {
				ci := base + int32(ui)
				s2, k, path := x.candidate(&fstates[fi], &trig, ui, ci, existed)
				propagations++
				// possible = parent worlds, minus capped, minus claimed —
				// word for word the single-word expression.
				for w := 0; w < words; w++ {
					possible[w] = fmask[w] &^ capMask[w]
				}
				live, slot := claimed.andNotProbe(k, possible)
				if !live {
					continue
				}
				ok := true
				if ws == nil {
					ok = x.sweepSeg(path, slice, possible)
				} else {
					switch me := x.verdict(ci, path, slice); me.verdict {
					case verdictOnly:
						ok = strikeOnly(possible, 1+int(me.hits[0]))
					case verdictZero, verdictZeroOpaque, verdictOffroad:
						ok = false
					}
				}
				if !ok {
					pruned++
					continue
				}
				claimed.orWordsAt(slot, k, possible, newBits)
				cells.orWordsAt(-1, cellKey(s2.Pos, cfg.CellSize), possible, newBits)
				for w := 0; w < words; w++ {
					for b := newBits[w]; b != 0; b &= b - 1 {
						volCount[w<<6+bits.TrailingZeros64(b)]++
					}
				}
				for w := 0; w < words; w++ {
					for b := possible[w]; b != 0; b &= b - 1 {
						tz := bits.TrailingZeros64(b)
						wi := w<<6 + tz
						sliceCount[wi]++
						if sliceCount[wi] >= cfg.MaxStates {
							capMask[w] |= uint64(1) << uint(tz)
						}
					}
				}
				nstates = append(nstates, s2)
				nmasks = append(nmasks, possible...)
				env.add(&s2)
				ws.produced(ci)
				states++
			}
		}
		fstates, nstates = nstates, fstates[:0]
		fmasks, nmasks = nmasks, fmasks[:0]
		ws.advance()
	}
	// Hand the (possibly re-grown) slices back for the next reuse.
	scr.sfstates, scr.sfmasks, scr.snstates, scr.snmasks, scr.mactive = fstates, fmasks, nstates, nmasks, x.act
	res.tally(volCount, cfg.CellSize, states, propagations, pruned)
}
