package reach

import "repro/internal/geom"

// maskSet is the one set structure Algorithm 1 needs, in both its roles:
// the per-slice ε-dedup set of optimisation 1, keyed by a state's dedup
// key, and the occupancy grid whose cell count measures |T|, keyed by
// cellKey. Every slot carries a world mask of `words` uint64s: bit w (of
// word w/64) records that world w has claimed the key. A plain tube uses
// bit 0 alone; a shared expansion uses bit 0 for the base world and bit
// 1+i for the world without actor i, so world w treats a key as visited,
// or a cell as occupied, iff its bit is set.
//
// The table is open-addressed with linear probing. Membership is decided
// by full key equality — the hash only picks the probe start — so it
// behaves exactly like a Go map. It grows before the load factor reaches
// 1/2, and a generation stamp makes reset O(1). Call reset before first
// use.
//
// A single-word mask lives in its slot, next to the key and the stamp, so
// a probe of the common one-word table touches one 32-byte slot; wider
// masks live in a separate arena.
type maskSet struct {
	words int
	slots []maskSlot
	masks []uint64 // multi-word tables only: stride `words` per slot
	cur   uint32
	n     int // live slots
}

type maskSlot struct {
	key  stateKey
	gen  uint32 // the slot is live iff gen == cur
	mask uint64 // the whole mask of a single-word table
}

// reset empties the table and sets its mask width. A width change
// re-strides the mask arena in place: after the generation bump no slot is
// live, so only the arena's length changes, and it reallocates only when
// its capacity falls short.
func (t *maskSet) reset(words int) {
	if words != t.words {
		t.words = words
		if need := t.arenaLen(len(t.slots)); need <= cap(t.masks) {
			t.masks = t.masks[:need]
		} else {
			t.masks = make([]uint64, need)
		}
	}
	t.cur++
	t.n = 0
	if t.cur == 0 { // stamp wrapped: old entries would look live again
		for i := range t.slots {
			t.slots[i].gen = 0
		}
		t.cur = 1
	}
}

func hashKey(k stateKey) uint64 {
	h := uint64(uint32(k.ix)) | uint64(uint32(k.iy))<<32
	h ^= (uint64(uint32(k.ih)) | uint64(uint32(k.iv))<<32) * 0x9e3779b97f4a7c15
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// find returns k's slot and true, or the first empty slot of k's probe
// chain and false. The table must be allocated. probe and claim, which run
// once per candidate, walk the chain inline instead: the extra call cost a
// few percent of a plain tube.
func (t *maskSet) find(k stateKey) (int, bool) {
	m := uint64(len(t.slots) - 1)
	for i := hashKey(k) & m; ; i = (i + 1) & m {
		if t.slots[i].gen != t.cur {
			return int(i), false
		}
		if t.slots[i].key == k {
			return int(i), true
		}
	}
}

// claim returns k's slot, inserting k with an empty mask when absent. hint
// is the slot a probe of k returned, or -1. It is trusted because no
// insertion happens between a probe and its claim, so the chain is walked
// once; an empty hint slot defers to a fresh probe when the insertion would
// breach the load factor.
func (t *maskSet) claim(hint int, k stateKey) int {
	if hint >= 0 && hint < len(t.slots) {
		if t.slots[hint].gen == t.cur {
			if t.slots[hint].key == k {
				return hint
			}
		} else if 2*(t.n+1) <= len(t.slots) {
			return t.insert(hint, k)
		}
	}
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	m := uint64(len(t.slots) - 1)
	for i := hashKey(k) & m; ; i = (i + 1) & m {
		if t.slots[i].gen != t.cur {
			return t.insert(int(i), k)
		}
		if t.slots[i].key == k {
			return int(i)
		}
	}
}

func (t *maskSet) insert(i int, k stateKey) int {
	t.slots[i] = maskSlot{key: k, gen: t.cur}
	t.n++
	if t.words > 1 {
		clear(t.masks[i*t.words : (i+1)*t.words])
	}
	return i
}

// arenaLen is the mask-arena length a table of n slots needs.
func (t *maskSet) arenaLen(n int) int {
	if t.words == 1 {
		return 0
	}
	return n * t.words
}

func (t *maskSet) grow() {
	capNew := 1024
	if len(t.slots) > 0 {
		capNew = 2 * len(t.slots)
	}
	oldSlots, oldMasks := t.slots, t.masks
	t.slots = make([]maskSlot, capNew)
	if t.words > 1 {
		t.masks = make([]uint64, t.arenaLen(capNew))
	}
	w := t.words
	for i, s := range oldSlots {
		if s.gen == t.cur {
			j, _ := t.find(s.key)
			t.slots[j] = s
			if w > 1 {
				copy(t.masks[j*w:(j+1)*w], oldMasks[i*w:(i+1)*w])
			}
		}
	}
}

// probe returns k's mask on a single-word table, plus the slot a later
// orAt may start from: k's slot if present, else the first empty slot of
// its chain (-1 while the table is unallocated).
func (t *maskSet) probe(k stateKey) (uint64, int) {
	if len(t.slots) == 0 {
		return 0, -1
	}
	m := uint64(len(t.slots) - 1)
	for i := hashKey(k) & m; ; i = (i + 1) & m {
		if t.slots[i].gen != t.cur {
			return 0, int(i)
		}
		if t.slots[i].key == k {
			return t.slots[i].mask, int(i)
		}
	}
}

// orAt ORs bits into k's mask on a single-word table, starting from the
// slot probe returned (or -1), and returns the bits that were not yet set:
// on the cell table, the worlds in which the cell is newly occupied.
func (t *maskSet) orAt(slot int, k stateKey, bits uint64) uint64 {
	s := &t.slots[t.claim(slot, k)]
	newBits := bits &^ s.mask
	s.mask |= bits
	return newBits
}

// andNotProbe is probe for multi-word masks: it strips k's mask out of
// possible in place, reports whether any bit survives, and returns the
// slot as probe does.
func (t *maskSet) andNotProbe(k stateKey, possible []uint64) (bool, int) {
	if len(t.slots) == 0 {
		return anyNonzero(possible), -1
	}
	i, found := t.find(k)
	if !found {
		return anyNonzero(possible), i
	}
	m := t.masks[i*t.words : (i+1)*t.words]
	live := false
	for w := range possible {
		possible[w] &^= m[w]
		live = live || possible[w] != 0
	}
	return live, i
}

// orWordsAt is orAt for multi-word masks: it ORs bits (len words) into k's
// mask and writes the bits that were not yet set into newBits (len words).
func (t *maskSet) orWordsAt(slot int, k stateKey, bits, newBits []uint64) {
	i := t.claim(slot, k)
	m := t.masks[i*t.words : (i+1)*t.words]
	for w, b := range bits {
		newBits[w] = b &^ m[w]
		m[w] |= b
	}
}

// cellKey is the key of the occupancy-grid cell containing p: its exact
// integer cell indices at resolution cellSize.
func cellKey(p geom.Vec2, cellSize float64) stateKey {
	return stateKey{ix: int32(floorDiv(p.X, cellSize)), iy: int32(floorDiv(p.Y, cellSize))}
}

func floorDiv(x, cell float64) float64 {
	q := x / cell
	// Truncation differs from floor for negatives; adjust.
	t := float64(int64(q))
	if q < 0 && q != t {
		t--
	}
	return t
}
