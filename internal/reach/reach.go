// Package reach implements Algorithm 1 of the iPrism paper: computing the
// ego vehicle's escape routes T_{t:t+k} as a reach-tube. Starting from the
// ego state, the kinematic bicycle model is propagated forward through time
// slices of Δt seconds under a set of control inputs; states that collide
// with (predicted) actor trajectories or leave the drivable area are pruned.
// The tube's state-space volume |T| — the area of the occupancy cells its
// surviving states traverse — quantifies the escape routes available.
package reach

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/roadmap"
	"repro/internal/telemetry"
	"repro/internal/vehicle"
)

// Telemetry: per-Compute counts are accumulated in locals inside the
// expansion loops and flushed once per tube, keeping the hot path free of
// atomics (collection itself is gated on telemetry.Enable).
var (
	telComputes     = telemetry.NewCounter("reach.computes")
	telStates       = telemetry.NewCounter("reach.states_expanded")
	telPropagations = telemetry.NewCounter("reach.propagations")
	telPruned       = telemetry.NewCounter("reach.pruned")
	telTubeVolume   = telemetry.NewHistogram("reach.tube_volume_m2", telemetry.LinearBuckets(0, 25, 24))
)

// CollisionFunc reports whether the footprint b collides with any obstacle
// during time slice index slice (slice 0 is the current instant). The
// footprint arrives prepared so implementations can run cached broad-phase
// rejections; b is only valid for the duration of the call.
type CollisionFunc func(b *geom.PreparedBox, slice int) bool

// Config holds the reach-tube parameters. The defaults mirror the paper's
// setup: horizon k = 3 s, slices Δt = 0.5 s, boundary-control enumeration
// {0, a_max} × {φ_min, 0, φ_max} (paper optimisation 2), ε-deduplication of
// near-identical states (optimisation 1).
type Config struct {
	Horizon float64 // k: look-ahead in seconds
	SliceDt float64 // Δt: slice length in seconds

	// Samples is the number of extra uniformly spread control samples per
	// state per slice in addition to the boundary set. 0 with BoundaryOnly
	// reproduces the paper's optimised configuration.
	Samples      int
	BoundaryOnly bool

	// Deduplication thresholds (optimisation 1): a new state is ignored if a
	// previously visited state in the same slice lies within these distances.
	PosEps     float64
	HeadingEps float64
	SpeedEps   float64

	// CellSize is the occupancy-grid resolution used to measure |T|.
	CellSize float64

	// MaxStates caps the number of states expanded per slice as a safety
	// valve against pathological configurations.
	MaxStates int

	// SubSteps subdivides each Δt slice when integrating the bicycle model
	// and checking collisions, preventing fast vehicles from tunnelling
	// through obstacles between slice endpoints.
	SubSteps int

	// RecordPoints retains the position of every expanded state in
	// Tube.Points — used by the SVG renderer to draw the reach-tube.
	RecordPoints bool

	Params vehicle.Params
}

// DefaultConfig returns the configuration used throughout the evaluation.
func DefaultConfig() Config {
	return Config{
		Horizon:      3.0,
		SliceDt:      0.5,
		Samples:      0,
		BoundaryOnly: true,
		PosEps:       0.5,
		HeadingEps:   0.1,
		SpeedEps:     1.0,
		CellSize:     1.0,
		MaxStates:    4096,
		SubSteps:     5,
		Params:       vehicle.DefaultParams(),
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.Horizon <= 0:
		return fmt.Errorf("reach: horizon must be positive, got %v", c.Horizon)
	case c.SliceDt <= 0 || c.SliceDt > c.Horizon:
		return fmt.Errorf("reach: slice dt %v must be in (0, horizon=%v]", c.SliceDt, c.Horizon)
	case c.PosEps <= 0 || c.HeadingEps <= 0 || c.SpeedEps <= 0:
		return fmt.Errorf("reach: dedup epsilons must be positive")
	case c.CellSize <= 0:
		return fmt.Errorf("reach: cell size must be positive, got %v", c.CellSize)
	case c.MaxStates < 1:
		return fmt.Errorf("reach: max states must be at least 1, got %d", c.MaxStates)
	case c.SubSteps < 1:
		return fmt.Errorf("reach: sub steps must be at least 1, got %d", c.SubSteps)
	}
	return c.Params.Validate()
}

// NumSlices returns the number of Δt slices covering the horizon.
func (c Config) NumSlices() int {
	return int(math.Round(c.Horizon / c.SliceDt))
}

// Tube is the result of a reach-tube computation.
type Tube struct {
	// Volume is the occupied area (m²) of the cells traversed by surviving
	// trajectories — the paper's |T|.
	Volume float64
	// States is the total number of distinct states expanded.
	States int
	// SliceStates[i] is the surviving frontier size after slice i; a zero
	// entry means no escape route extends past that slice (safety hazard).
	SliceStates []int
	// Points holds every expanded state position when
	// Config.RecordPoints is set; empty otherwise.
	Points []geom.Vec2
}

// Depth returns the number of slices with at least one surviving state.
func (t Tube) Depth() int {
	n := 0
	for _, s := range t.SliceStates {
		if s == 0 {
			break
		}
		n++
	}
	return n
}

// controls returns the control set applied at every expansion: always the
// boundary set {0, a_max} × {φ_min, 0, φ_max} (ensuring the tube boundary is
// covered, per the paper), plus an optional uniform lattice of extra samples.
func (c Config) controls() []vehicle.Control {
	p := c.Params
	out := make([]vehicle.Control, 0, 6+c.Samples)
	for _, a := range [...]float64{0, p.MaxAccel} {
		for _, phi := range [...]float64{-p.MaxSteer, 0, p.MaxSteer} {
			out = append(out, vehicle.Control{Accel: a, Steer: phi})
		}
	}
	if c.BoundaryOnly || c.Samples <= 0 {
		return out
	}
	// Deterministic stratified lattice over the full control rectangle
	// [a_min, a_max] × [-φ_max, φ_max]; determinism keeps every experiment
	// reproducible without threading RNGs through the hot path.
	na := int(math.Ceil(math.Sqrt(float64(c.Samples))))
	nphi := (c.Samples + na - 1) / na
	for i := 0; i < na; i++ {
		for j := 0; j < nphi; j++ {
			fa := (float64(i) + 0.5) / float64(na)
			fp := (float64(j) + 0.5) / float64(nphi)
			out = append(out, vehicle.Control{
				Accel: p.MaxBrake + fa*(p.MaxAccel-p.MaxBrake),
				Steer: -p.MaxSteer + fp*2*p.MaxSteer,
			})
		}
	}
	return out
}

type stateKey struct {
	ix, iy, ih, iv int32
}

func (c Config) key(s vehicle.State) stateKey {
	return stateKey{
		ix: int32(math.Floor(s.Pos.X / c.PosEps)),
		iy: int32(math.Floor(s.Pos.Y / c.PosEps)),
		ih: int32(math.Floor(s.Heading / c.HeadingEps)),
		iv: int32(math.Floor(s.Speed / c.SpeedEps)),
	}
}

// Scratch holds the reusable allocations of a reach-tube computation: the
// frontier/next state slices, the per-slice dedup table and the occupancy
// grid. A Scratch amortises the GC churn of the tube computations of an STI
// evaluation; sti.Evaluator pools them. A Scratch must not be used by two
// computations concurrently. Construct with NewScratch.
type Scratch struct {
	frontier []vehicle.State
	next     []vehicle.State
	claimed  maskSet // per-slice ε-dedup claims, keyed by dedup key
	cells    maskSet // occupancy grid, keyed by cellKey

	// Shared-expansion working memory (ComputeCounterfactuals); allocated
	// lazily on first shared use so tube-only scratches stay slim.
	mfrontier []maskedState
	mnext     []maskedState
	wvol      []int   // per-world marked-cell counts
	wslice    []int   // per-world accepted states in the current slice
	mactive   []int32 // actors surviving the per-slice broad phase

	// Segmented-mask working memory (64+-actor scenes): struct-of-arrays
	// frontier (states plus a flat stride-words mask arena) and the
	// per-slice word buffers of warmSegmented.
	sfstates []vehicle.State
	sfmasks  []uint64
	snstates []vehicle.State
	snmasks  []uint64
	scap     []uint64 // per-slice MaxStates cap mask
	sposs    []uint64 // per-candidate possible-world mask
	snew     []uint64 // orWordsAt newly-set-bits buffer
}

// NewScratch returns an empty scratch ready for ComputeScratch.
func NewScratch() *Scratch {
	return &Scratch{
		frontier: make([]vehicle.State, 0, 64),
		next:     make([]vehicle.State, 0, 64),
	}
}

// resetShared readies the shared expansion working memory for a
// ComputeCounterfactuals call with numWorlds counterfactual worlds packed
// into `words` 64-bit mask words (1 selects the single-word loop).
func (s *Scratch) resetShared(numWorlds, words int) {
	if words > 1 {
		s.scap = sizeU64(s.scap, words)
		s.sposs = sizeU64(s.sposs, words)
		s.snew = sizeU64(s.snew, words)
	}
	s.cells.reset(words)
	if cap(s.wvol) < numWorlds {
		s.wvol = make([]int, numWorlds)
		s.wslice = make([]int, numWorlds)
	}
	s.wvol = s.wvol[:numWorlds]
	s.wslice = s.wslice[:numWorlds]
	clear(s.wvol)
	clear(s.wslice)
}

// sizeU64 returns a zeroed []uint64 of length n, reusing buf's backing
// array when it is large enough.
func sizeU64(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// Compute runs Algorithm 1: it returns the reach-tube of the ego vehicle on
// map m, with collisions judged by collide (which may be nil for an empty
// world — the T^∅ counterfactual). It allocates fresh working state; hot
// callers should use ComputeScratch.
func Compute(m roadmap.Map, collide CollisionFunc, ego vehicle.State, cfg Config) Tube {
	return ComputeScratch(m, collide, ego, cfg, nil)
}

// ComputeScratch is Compute with caller-provided working memory. scr may be
// nil (fresh allocations); the result is identical either way, and scr can
// be reused for any subsequent computation.
func ComputeScratch(m roadmap.Map, collide CollisionFunc, ego vehicle.State, cfg Config, scr *Scratch) Tube {
	numSlices := cfg.NumSlices()
	if scr == nil {
		scr = NewScratch()
	}
	cells := &scr.cells
	cells.reset(1)
	tube := Tube{SliceStates: make([]int, numSlices)}
	// Resolve the prepared-footprint fast path once per tube; maps outside
	// the roadmap package fall back to DrivableBox.
	pm, _ := m.(roadmap.PreparedMap)

	telComputes.Inc()
	egoPb := cfg.Params.Footprint(ego).Prepare()
	if !drivable(m, pm, &egoPb) || (collide != nil && collide(&egoPb, 0)) {
		// The ego is already off-road or in contact: no escape routes.
		telTubeVolume.Observe(0)
		return tube
	}

	controls := cfg.controls()
	// The control set is fixed for the whole tube: precompute each
	// control's steering tangent so the sub-step integrator skips the
	// per-step tan (see vehicle.Params.StepTan).
	tans := make([]float64, len(controls))
	for i, u := range controls {
		tans[i] = math.Tan(u.Steer)
	}
	// One prepared footprint reused across every sub-step of the tube —
	// seeded from the start footprint so the half-extents and bounding
	// radius (constant for the whole tube) are prepared exactly once — and
	// one path buffer holding the sub-step states of the candidate under
	// consideration.
	pb := egoPb
	path := make([]pathState, cfg.SubSteps)
	frontier := append(scr.frontier[:0], ego)
	claimed := &scr.claimed
	next := scr.next
	propagations, pruned := 0, 0

	for slice := 0; slice < numSlices; slice++ {
		claimed.reset(1)
		next = next[:0]
	expand:
		for _, s := range frontier {
			// One Sincos per frontier state, shared by all its control
			// branches; StepPath rotates it incrementally per sub-step.
			sin0, cos0 := math.Sincos(s.Heading)
			for ui, u := range controls {
				// Integrate the candidate's sub-step path first — pure
				// kinematics, no footprint work — and discard duplicate
				// endpoints before paying for the drivability and collision
				// sweep. In saturated slices most propagations land on an
				// already-visited dedup cell, and a duplicate is discarded
				// identically whether or not its path would have been pruned
				// (the checks have no effect on surviving states), so this
				// reordering leaves the tube bit-for-bit unchanged.
				s2, nsub := cfg.integrate(s, sin0, cos0, u, tans[ui], path)
				propagations++
				k := cfg.key(s2)
				seen, slot := claimed.probe(k)
				if seen != 0 {
					continue
				}
				if !cfg.pathOK(m, pm, collide, path[:nsub], slice, &pb) {
					pruned++
					continue
				}
				claimed.orAt(slot, k, 1)
				cells.orAt(-1, cellKey(s2.Pos, cfg.CellSize), 1)
				if cfg.RecordPoints {
					tube.Points = append(tube.Points, s2.Pos)
				}
				next = append(next, s2)
				if len(next) >= cfg.MaxStates {
					break expand
				}
			}
		}
		tube.SliceStates[slice] = len(next)
		tube.States += len(next)
		if len(next) == 0 {
			break
		}
		frontier, next = next, frontier[:0]
	}
	// Hand the (possibly re-grown) slices back for the next reuse.
	scr.frontier, scr.next = frontier, next
	tube.Volume = float64(cells.n) * cfg.CellSize * cfg.CellSize
	telStates.Add(int64(tube.States))
	telPropagations.Add(int64(propagations))
	telPruned.Add(int64(pruned))
	telTubeVolume.Observe(tube.Volume)
	return tube
}

func drivable(m roadmap.Map, pm roadmap.PreparedMap, b *geom.PreparedBox) bool {
	if pm != nil {
		return pm.DrivablePrepared(b)
	}
	return m.DrivableBox(b.Box)
}

// pathState is one sub-step of an integrated candidate path, carrying the
// heading sine/cosine StepPath maintains so pathOK can prepare footprints
// without recomputing the trigonometry.
type pathState struct {
	st       vehicle.State
	sin, cos float64
}

// integrate advances one Δt slice of the bicycle model in sub-increments,
// recording every intermediate state into path (pre-sized to SubSteps by
// the caller) and returning the endpoint plus the number of sub-steps
// written. sinH, cosH must hold sincos(s.Heading). The number of sub-steps
// adapts to the state's speed — enough that no sub-step covers more than
// ~half a vehicle length, capped at SubSteps — so slow states stay cheap
// and fast states cannot tunnel between the footprint checks pathOK later
// runs over the recorded states.
func (c *Config) integrate(s vehicle.State, sinH, cosH float64, u vehicle.Control, tanSteer float64, path []pathState) (vehicle.State, int) {
	sub := int(math.Ceil(s.Speed * c.SliceDt / (c.Params.Length / 2)))
	if sub < 1 {
		sub = 1
	}
	if sub > c.SubSteps {
		sub = c.SubSteps
	}
	dt := c.SliceDt / float64(sub)
	for j := 0; j < sub; j++ {
		s = c.Params.StepPath(s, u, tanSteer, dt, &sinH, &cosH)
		path[j] = pathState{st: s, sin: sinH, cos: cosH}
	}
	return s, sub
}

// pathOK sweeps the footprint along an integrated sub-step path, rejecting
// the transition if any intermediate footprint leaves the map or collides.
// Intermediate collisions are tested against both bounding slice indices of
// the (moving) obstacles, a conservative sweep approximation.
func (c Config) pathOK(m roadmap.Map, pm roadmap.PreparedMap, collide CollisionFunc, path []pathState, slice int, pb *geom.PreparedBox) bool {
	for i := range path {
		ps := &path[i]
		pb.MoveTo(ps.st.Pos, ps.st.Heading, ps.sin, ps.cos)
		if !drivable(m, pm, pb) {
			return false
		}
		if collide != nil && (collide(pb, slice) || collide(pb, slice+1)) {
			return false
		}
	}
	return true
}
