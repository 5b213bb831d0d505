package reach

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// newMaskSet returns a reset, empty table of the given mask width.
func newMaskSet(words int) *maskSet {
	t := &maskSet{}
	t.reset(words)
	return t
}

// mark ORs bits into the single-word mask of the cell containing p and
// returns the newly set bits, as the expansion loops mark cells.
func (t *maskSet) mark(p geom.Vec2, cellSize float64, bits uint64) uint64 {
	return t.orAt(-1, cellKey(p, cellSize), bits)
}

// bitsAt returns the single-word mask of the cell containing p.
func (t *maskSet) bitsAt(p geom.Vec2, cellSize float64) uint64 {
	bits, _ := t.probe(cellKey(p, cellSize))
	return bits
}

// wordsAt returns the multi-word mask of the cell containing p.
func (t *maskSet) wordsAt(p geom.Vec2, cellSize float64) []uint64 {
	got := make([]uint64, t.words)
	for w := range got {
		got[w] = ^uint64(0)
	}
	t.andNotProbe(cellKey(p, cellSize), got)
	for w := range got {
		got[w] = ^got[w]
	}
	return got
}

// FuzzMaskSet drives random or/probe/reset sequences through one maskSet
// and a Go-map reference at mask widths 1–3, through growth past the
// initial 1024 slots and width changes at reset, and requires the same
// masks, the same newly-set bits and the same live-key count after every
// operation. Scalar and word-slice methods are both exercised, with and
// without a probe's slot hint.
func FuzzMaskSet(f *testing.F) {
	f.Add(int64(1), uint16(200), uint8(0), uint8(0))    // small, one table size
	f.Add(int64(2), uint16(4000), uint8(40), uint8(0))  // grows past 1024 slots
	f.Add(int64(3), uint16(7000), uint8(255), uint8(2)) // repeated growth, a few width changes
	f.Add(int64(4), uint16(3000), uint8(3), uint8(15))  // dense hits, many resets
	f.Fuzz(func(t *testing.T, seed int64, ops uint16, span, resets uint8) {
		rng := rand.New(rand.NewSource(seed))
		keyRange := int32(4 + int(span)*16)
		randKey := func() stateKey {
			r := func() int32 { return rng.Int31n(2*keyRange) - keyRange }
			return stateKey{ix: r(), iy: r(), ih: rng.Int31n(3), iv: rng.Int31n(2)}
		}
		randMask := func(words int) []uint64 {
			m := make([]uint64, words)
			for w := range m {
				m[w] = rng.Uint64() & rng.Uint64() // sparse, so overlaps vary
			}
			return m
		}
		words := 1 + rng.Intn(3)
		ms := newMaskSet(words)
		ref := map[stateKey][]uint64{}
		want := func(k stateKey) []uint64 {
			if m, ok := ref[k]; ok {
				return m
			}
			return make([]uint64, words)
		}
		for op := 0; op < int(ops)%8000; op++ {
			k := randKey()
			switch r := rng.Intn(4000); {
			case r < int(resets%16): // reset, sometimes to a new width
				words = 1 + rng.Intn(3)
				ms.reset(words)
				clear(ref)
			case r < 2000: // or, with or without the probe's slot hint
				bits := randMask(words)
				old := want(k)
				slot := -1
				if rng.Intn(2) == 0 {
					if words == 1 {
						_, slot = ms.probe(k)
					} else {
						_, slot = ms.andNotProbe(k, make([]uint64, words))
					}
				}
				got := make([]uint64, words)
				if words == 1 {
					got[0] = ms.orAt(slot, k, bits[0])
				} else {
					ms.orWordsAt(slot, k, bits, got)
				}
				acc := make([]uint64, words)
				for w := range bits {
					if nb := bits[w] &^ old[w]; got[w] != nb {
						t.Fatalf("op %d: or %v word %d: new bits %x, want %x", op, k, w, got[w], nb)
					}
					acc[w] = old[w] | bits[w]
				}
				ref[k] = acc
			default: // probe
				m := want(k)
				if words == 1 {
					if got, _ := ms.probe(k); got != m[0] {
						t.Fatalf("op %d: probe %v = %x, want %x", op, k, got, m[0])
					}
					break
				}
				possible := randMask(words)
				exp := make([]uint64, words)
				any := false
				for w := range possible {
					exp[w] = possible[w] &^ m[w]
					any = any || exp[w] != 0
				}
				gotAny, _ := ms.andNotProbe(k, possible)
				for w := range possible {
					if possible[w] != exp[w] {
						t.Fatalf("op %d: andNotProbe %v word %d = %x, want %x", op, k, w, possible[w], exp[w])
					}
				}
				if gotAny != any {
					t.Fatalf("op %d: andNotProbe %v reported %v, want %v", op, k, gotAny, any)
				}
			}
			if ms.n != len(ref) {
				t.Fatalf("op %d: %d live keys, reference holds %d", op, ms.n, len(ref))
			}
		}
	})
}

// White-box: when the generation stamp wraps, the stamps of long-dead
// entries must not come back to life.
func TestMaskSetGenerationWraparound(t *testing.T) {
	ms := newMaskSet(2)
	k := stateKey{ix: 7, iy: -3}
	newBits := make([]uint64, 2)
	ms.orWordsAt(-1, k, []uint64{1, 2}, newBits) // stamped with generation 1
	ms.cur = math.MaxUint32                      // as if 2³²−2 resets had passed
	ms.reset(2)                                  // wraps past 0 back to 1
	if ms.cur != 1 || ms.n != 0 {
		t.Fatalf("after wrap: cur %d, n %d; want 1, 0", ms.cur, ms.n)
	}
	possible := []uint64{1, 2}
	if any, _ := ms.andNotProbe(k, possible); !any || possible[0] != 1 || possible[1] != 2 {
		t.Fatalf("entry from before the wrap is live again: mask left %x", possible)
	}
	ms.orWordsAt(-1, k, []uint64{4, 0}, newBits)
	if newBits[0] != 4 || newBits[1] != 0 || ms.n != 1 {
		t.Fatalf("re-insert after wrap: new bits %x, n %d", newBits, ms.n)
	}
}

func TestFloorDivMatchesMathFloor(t *testing.T) {
	for _, x := range []float64{-5.5, -1, -0.1, 0, 0.1, 1, 2.9, 1e5} {
		for _, c := range []float64{0.5, 1, 2.5} {
			want := math.Floor(x / c)
			if got := floorDiv(x, c); got != want {
				t.Errorf("floorDiv(%v,%v) = %v, want %v", x, c, got, want)
			}
		}
	}
}

// The occupancy-grid use of maskSet: cells keyed by cellKey, bit 0 for a
// plain tube, one bit per world for a shared expansion.

func TestGridMarkCount(t *testing.T) {
	g := newMaskSet(1)
	if g.mark(geom.V(0.5, 0.5), 1, 1) == 0 {
		t.Error("first mark should be new")
	}
	if g.mark(geom.V(0.9, 0.1), 1, 1) != 0 {
		t.Error("same-cell mark should not be new")
	}
	if g.mark(geom.V(1.5, 0.5), 1, 1) == 0 {
		t.Error("adjacent cell should be new")
	}
	if g.n != 2 {
		t.Errorf("cells = %d, want 2", g.n)
	}
	if g.bitsAt(geom.V(0.2, 0.7), 1) != 1 {
		t.Error("cell should be occupied")
	}
	g.reset(1)
	if g.n != 0 || g.bitsAt(geom.V(0.2, 0.7), 1) != 0 {
		t.Error("reset should clear cells")
	}
}

func TestGridNegativeCoordinates(t *testing.T) {
	g := newMaskSet(1)
	g.mark(geom.V(-0.5, -0.5), 1, 1)
	g.mark(geom.V(0.5, 0.5), 1, 1)
	if g.n != 2 {
		t.Errorf("cells at ±0.5 must differ; cells = %d", g.n)
	}
	// -0.5 and -0.9 share the [-1, 0) cell.
	if g.mark(geom.V(-0.9, -0.9), 1, 1) != 0 {
		t.Error("(-0.9,-0.9) should share the (-1..0) cell with (-0.5,-0.5)")
	}
}

// The cell table has no resolution of its own: a non-positive cell size
// must be stopped by Config.Validate before any cell key is computed.
func TestGridInvalidCellSize(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CellSize = -1
	if cfg.Validate() == nil {
		t.Error("negative cell size passed Config.Validate")
	}
}

// |T| is the marked-cell count times the cell area, at any resolution.
func TestGridAreaScalesWithCellSize(t *testing.T) {
	for _, cell := range []float64{0.5, 1, 2} {
		cfg := DefaultConfig()
		cfg.CellSize = cell
		scr := NewScratch()
		tube := ComputeScratch(testRoad(), nil, egoState(0, 1.75, 10), cfg, scr)
		if scr.cells.n == 0 || tube.Volume != float64(scr.cells.n)*cell*cell {
			t.Errorf("cell %v: volume %v for %d cells", cell, tube.Volume, scr.cells.n)
		}
	}
}

func TestGridDenseCoverage(t *testing.T) {
	g := newMaskSet(1)
	for x := 0.0; x < 10; x += 0.25 {
		for y := 0.0; y < 10; y += 0.25 {
			g.mark(geom.V(x, y), 1, 1)
		}
	}
	if g.n != 100 {
		t.Errorf("dense 10x10 coverage = %d cells, want 100", g.n)
	}
}

func FuzzGridMarkOccupied(f *testing.F) {
	f.Add(0.5, 0.5, 1.0)
	f.Add(-3.2, 7.7, 0.25)
	f.Fuzz(func(t *testing.T, x, y, cell float64) {
		if math.IsNaN(x) || math.IsNaN(y) || math.IsNaN(cell) ||
			math.IsInf(x, 0) || math.IsInf(y, 0) || math.IsInf(cell, 0) {
			t.Skip()
		}
		if math.Abs(x) > 1e6 || math.Abs(y) > 1e6 || cell <= 1e-3 || cell > 1e3 {
			t.Skip()
		}
		g := newMaskSet(1)
		p := geom.V(x, y)
		g.mark(p, cell, 1)
		if g.bitsAt(p, cell) != 1 {
			t.Fatalf("marked cell not occupied: (%v, %v) cell %v", x, y, cell)
		}
		if g.n != 1 {
			t.Fatalf("cells = %d after one mark", g.n)
		}
	})
}

func TestMaskGridMarkBitsReturnsNewBits(t *testing.T) {
	g := newMaskSet(1)
	p := geom.V(0.5, 0.5)
	if got := g.mark(p, 1, 0b0101); got != 0b0101 {
		t.Fatalf("first mark returned %b, want 0101", got)
	}
	if got := g.mark(p, 1, 0b0011); got != 0b0010 {
		t.Fatalf("overlapping mark returned %b, want 0010", got)
	}
	if got := g.mark(p, 1, 0b0111); got != 0 {
		t.Fatalf("fully covered mark returned %b, want 0", got)
	}
	if got := g.bitsAt(p, 1); got != 0b0111 {
		t.Fatalf("accumulated mask %b, want 0111", got)
	}
	if g.n != 1 {
		t.Fatalf("cells %d, want 1", g.n)
	}
}

// A single-bit cell table must mark exactly the cells a map keyed by
// math.Floor cell indices marks, so tube volumes are exact cell counts.
func TestMaskGridCellAddressingMatchesOccupancyGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const cell = 0.75
	g := newMaskSet(1)
	ref := map[[2]float64]bool{}
	for i := 0; i < 5000; i++ {
		p := geom.V((rng.Float64()-0.5)*200, (rng.Float64()-0.5)*200)
		newBit := g.mark(p, cell, 1) != 0
		c := [2]float64{math.Floor(p.X / cell), math.Floor(p.Y / cell)}
		fresh := !ref[c]
		ref[c] = true
		if newBit != fresh {
			t.Fatalf("point %v: cell table new=%v reference new=%v", p, newBit, fresh)
		}
	}
	if g.n != len(ref) {
		t.Fatalf("cell counts diverge: %d vs %d", g.n, len(ref))
	}
}

func TestMaskGridResetReuse(t *testing.T) {
	g := newMaskSet(1)
	for round := 0; round < 3; round++ {
		for i := 0; i < 100; i++ {
			g.mark(geom.V(float64(i), float64(round)), 1, uint64(1)<<uint(i%64))
		}
		if g.n != 100 {
			t.Fatalf("round %d: cells %d, want 100", round, g.n)
		}
		g.reset(1)
		if g.n != 0 {
			t.Fatalf("round %d: cells after reset %d", round, g.n)
		}
		if g.bitsAt(geom.V(0, float64(round)), 1) != 0 {
			t.Fatalf("round %d: stale bits survive reset", round)
		}
	}
}

func TestMaskGridGrowthPreservesMasks(t *testing.T) {
	g := newMaskSet(1)
	const n = 3000 // well past the initial table size, forcing rehashes
	for i := 0; i < n; i++ {
		g.mark(geom.V(float64(i), 0), 1, uint64(i)|1)
	}
	if g.n != n {
		t.Fatalf("cells %d, want %d", g.n, n)
	}
	for i := 0; i < n; i++ {
		if got, want := g.bitsAt(geom.V(float64(i), 0), 1), uint64(i)|1; got != want {
			t.Fatalf("cell %d: mask %b, want %b after growth", i, got, want)
		}
	}
}

func TestMaskGridMarkWordsReturnsNewBits(t *testing.T) {
	g := newMaskSet(2)
	k := cellKey(geom.V(0.5, 0.5), 1)
	newBits := make([]uint64, 2)
	g.orWordsAt(-1, k, []uint64{0b0101, 0b1000}, newBits)
	if newBits[0] != 0b0101 || newBits[1] != 0b1000 {
		t.Fatalf("first mark returned %b/%b, want 0101/1000", newBits[0], newBits[1])
	}
	g.orWordsAt(-1, k, []uint64{0b0011, 0b1100}, newBits)
	if newBits[0] != 0b0010 || newBits[1] != 0b0100 {
		t.Fatalf("overlapping mark returned %b/%b, want 0010/0100", newBits[0], newBits[1])
	}
	g.orWordsAt(-1, k, []uint64{0b0111, 0b1100}, newBits)
	if newBits[0] != 0 || newBits[1] != 0 {
		t.Fatalf("fully covered mark returned %b/%b, want 0/0", newBits[0], newBits[1])
	}
	if acc := g.wordsAt(geom.V(0.5, 0.5), 1); acc[0] != 0b0111 || acc[1] != 0b1100 {
		t.Fatalf("accumulated mask %b/%b, want 0111/1100", acc[0], acc[1])
	}
	if g.n != 1 {
		t.Fatalf("cells %d, want 1", g.n)
	}
	if acc := g.wordsAt(geom.V(50, 50), 1); acc[0] != 0 || acc[1] != 0 {
		t.Fatalf("unmarked cell reads %b/%b, want zeros", acc[0], acc[1])
	}
}

// A multi-word table must behave exactly like one single-word table per
// word: the per-word newly-set bits and accumulated masks of random
// markings have to agree word for word, including across table growth.
func TestMaskGridWordsMatchPerWordGrids(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const words, cell = 3, 0.75
	wide := newMaskSet(words)
	narrow := make([]*maskSet, words)
	for w := range narrow {
		narrow[w] = newMaskSet(1)
	}
	mask := make([]uint64, words)
	newBits := make([]uint64, words)
	for i := 0; i < 4000; i++ {
		p := geom.V((rng.Float64()-0.5)*100, (rng.Float64()-0.5)*100)
		for w := range mask {
			mask[w] = rng.Uint64()
		}
		wide.orWordsAt(-1, cellKey(p, cell), mask, newBits)
		for w := range mask {
			if got := narrow[w].mark(p, cell, mask[w]); got != newBits[w] {
				t.Fatalf("point %v word %d: new bits %b, per-word table %b", p, w, newBits[w], got)
			}
		}
	}
	if wide.n != narrow[0].n {
		t.Fatalf("cell counts diverge: %d vs %d", wide.n, narrow[0].n)
	}
	for i := 0; i < 1000; i++ {
		p := geom.V((rng.Float64()-0.5)*100, (rng.Float64()-0.5)*100)
		acc := wide.wordsAt(p, cell)
		for w := range acc {
			if got := narrow[w].bitsAt(p, cell); got != acc[w] {
				t.Fatalf("point %v word %d: mask %b, per-word table %b", p, w, acc[w], got)
			}
		}
	}
}

func TestMaskGridWordsResetReuse(t *testing.T) {
	g := newMaskSet(2)
	mask := []uint64{^uint64(0), 1}
	newBits := make([]uint64, 2)
	for round := 0; round < 3; round++ {
		for i := 0; i < 100; i++ {
			g.orWordsAt(-1, cellKey(geom.V(float64(i), float64(round)), 1), mask, newBits)
		}
		if g.n != 100 {
			t.Fatalf("round %d: cells %d, want 100", round, g.n)
		}
		g.reset(2)
		if g.n != 0 {
			t.Fatalf("round %d: cells after reset %d", round, g.n)
		}
		if acc := g.wordsAt(geom.V(0, float64(round)), 1); acc[0] != 0 || acc[1] != 0 {
			t.Fatalf("round %d: stale bits survive reset", round)
		}
	}
}

func BenchmarkGridMark(b *testing.B) {
	g := newMaskSet(1)
	for i := 0; i < b.N; i++ {
		g.mark(geom.V(float64(i%100), float64(i%37)), 1, 1)
	}
}
