// Package cat implements the Collision Avoidance Table (CAT) from the RRS
// paper (Section 6): a two-table skewed-associative structure, indexed by
// two independent keyed hashes, with over-provisioned ways so that installs
// (almost) always find an invalid way in one of the two candidate sets.
//
// CAT is the storage substrate for both the scalable Misra-Gries tracker
// (HRT) and the Row Indirection Table (RIT). It offers set-associative
// lookup latency with conflict-free storage for a bounded number of items,
// avoiding the CAM used by Graphene's original tracker.
//
// The structure is inspired by MIRAGE (USENIX Security 2021): installs pick
// the candidate set with more invalid ways (power-of-two-choices load
// balancing), and if ever both sets are full a one-level cuckoo relocation
// is attempted, mirroring MIRAGE-Lite.
package cat

import (
	"fmt"

	"repro/internal/prince"
)

// Spec describes a CAT geometry. The paper's RIT uses 2 tables x 256 sets
// x 20 ways; the tracker uses 2 tables x 64 sets x 20 ways, in both cases
// 14 demand ways and 6 extra ways.
type Spec struct {
	// Sets is the number of sets per table (the structure has 2 tables).
	Sets int
	// Ways is the total ways per set (demand + extra).
	Ways int
}

// Slots returns the total number of storage slots.
func (s Spec) Slots() int { return 2 * s.Sets * s.Ways }

// Validate reports an invalid geometry.
func (s Spec) Validate() error {
	if s.Sets <= 0 || s.Ways <= 0 {
		return fmt.Errorf("cat: invalid geometry %d sets x %d ways", s.Sets, s.Ways)
	}
	return nil
}

type slot[V any] struct {
	key   uint64
	val   V
	valid bool
}

// densePageRows is the key span of one page of the set-index table.
const densePageRows = 256

// maxDenseRows caps the set-index table: keys at or above it hash
// directly, so adversarial 64-bit keys (fuzzers, tests) cannot balloon
// it. It matches the trackers' and the RIT's presence-bitset bound.
const maxDenseRows = 1 << 22

// setPage holds the candidate sets of densePageRows consecutive keys,
// packed s0<<8|s1; an entry is populated once its bit in filled is set.
type setPage struct {
	filled [densePageRows / 64]uint64
	sets   [densePageRows]uint16
}

// Table is a CAT holding values of type V keyed by 64-bit keys (row ids).
// The zero value is not usable; construct with New.
//
// Table is not safe for concurrent use.
type Table[V any] struct {
	spec    Spec
	slots   [2][]slot[V] // per table, sets*ways slots, set-major
	invalid [2][]int     // per table, per set: count of invalid ways
	hash    [2]*prince.Hash64
	size    int
	// pages is the dense set-index table: pages[key/densePageRows] holds
	// the candidate sets of every key below maxDenseRows that has been
	// looked up, each hashed on first use and allocated a page at a time.
	// Set indices are a pure function of the key and the boot-time hash
	// keys, so entries never need invalidation (Clear keeps the hash
	// keys) and a key's two PRINCE evaluations, which dominate the lookup
	// cost, happen at most once per Table.
	pages []*setPage
	// conflicts counts installs that found both candidate sets full
	// (before cuckoo relocation).
	conflicts int
	// relocations counts successful cuckoo moves.
	relocations int
}

// New creates an empty CAT with the given geometry. The two set-index
// hashes are keyed low-latency ciphers derived from seed, so different
// seeds give independent skews.
func New[V any](spec Spec, seed uint64) *Table[V] {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	t := &Table[V]{spec: spec}
	for i := 0; i < 2; i++ {
		t.slots[i] = make([]slot[V], spec.Sets*spec.Ways)
		t.invalid[i] = make([]int, spec.Sets)
		for s := range t.invalid[i] {
			t.invalid[i][s] = spec.Ways
		}
	}
	// Two independent keys derived from the seed.
	kg := prince.Seeded(seed)
	t.hash[0] = prince.NewHash64(kg.Next(), kg.Next())
	t.hash[1] = prince.NewHash64(kg.Next(), kg.Next())
	return t
}

// Spec returns the geometry.
func (t *Table[V]) Spec() Spec { return t.spec }

// Len returns the number of valid entries.
func (t *Table[V]) Len() int { return t.size }

// Conflicts returns how many installs found both candidate sets full.
func (t *Table[V]) Conflicts() int { return t.conflicts }

// Relocations returns how many installs were saved by cuckoo relocation.
func (t *Table[V]) Relocations() int { return t.relocations }

// setIndex returns the candidate set for key in table ti.
func (t *Table[V]) setIndex(ti int, key uint64) int {
	return int(t.hash[ti].Sum(key) % uint64(t.spec.Sets))
}

// hashSets evaluates both candidate set indices from the raw hashes.
func (t *Table[V]) hashSets(key uint64) (int, int) {
	return t.setIndex(0, key), t.setIndex(1, key)
}

// entry returns key's populated set-index entry, or nil. Pages exist
// only below maxDenseRows, so the directory bound also bounds the key.
func (t *Table[V]) entry(key uint64) *uint16 {
	if p, i := key/densePageRows, key%densePageRows; p < uint64(len(t.pages)) {
		if pg := t.pages[p]; pg != nil && pg.filled[i/64]&(1<<(i%64)) != 0 {
			return &pg.sets[i]
		}
	}
	return nil
}

// setsOf returns both candidate set indices through the dense table.
func (t *Table[V]) setsOf(key uint64) (int, int) {
	if e := t.entry(key); e != nil {
		return int(*e >> 8), int(*e & 0xFF)
	}
	return t.fillSets(key)
}

// fillSets is setsOf's miss path: it hashes key and records the pair,
// growing the page directory and allocating the page on first touch.
// Keys at or above the cap, and every key of a geometry whose set
// indices do not fit a byte (more than 256 sets), are not recorded.
func (t *Table[V]) fillSets(key uint64) (int, int) {
	s0, s1 := t.hashSets(key)
	if key >= maxDenseRows || t.spec.Sets > 256 {
		return s0, s1
	}
	p, i := key/densePageRows, key%densePageRows
	if p >= uint64(len(t.pages)) {
		grown := make([]*setPage, min(2*(p+1), maxDenseRows/densePageRows))
		copy(grown, t.pages)
		t.pages = grown
	}
	if t.pages[p] == nil {
		t.pages[p] = new(setPage)
	}
	t.pages[p].sets[i] = uint16(s0<<8 | s1)
	t.pages[p].filled[i/64] |= 1 << (i % 64)
	return s0, s1
}

// setSlots returns the slot slice for set s of table ti.
func (t *Table[V]) setSlots(ti, s int) []slot[V] {
	w := t.spec.Ways
	return t.slots[ti][s*w : (s+1)*w]
}

// Lookup returns a pointer to the value stored for key, or nil if absent.
// The pointer stays valid until the entry is deleted or relocated; callers
// must not retain it across Install or Delete calls.
func (t *Table[V]) Lookup(key uint64) *V {
	_, _, v := t.LookupPos(key)
	return v
}

// LookupPos is Lookup returning also the table index and set that hold
// the entry, so callers maintaining per-set metadata (the tracker's
// SetMin counters) can update exactly the affected set. val is nil when
// key is absent; ti and s are then meaningless.
func (t *Table[V]) LookupPos(key uint64) (ti, s int, val *V) {
	s0, s1 := t.setsOf(key)
	return t.find(key, s0, s1)
}

// find scans key's candidate sets s0 (table 0) and s1 (table 1).
func (t *Table[V]) find(key uint64, s0, s1 int) (ti, s int, val *V) {
	ss := t.setSlots(0, s0)
	for i := range ss {
		if ss[i].valid && ss[i].key == key {
			return 0, s0, &ss[i].val
		}
	}
	ss = t.setSlots(1, s1)
	for i := range ss {
		if ss[i].valid && ss[i].key == key {
			return 1, s1, &ss[i].val
		}
	}
	return 0, 0, nil
}

// Contains reports whether key is present.
func (t *Table[V]) Contains(key uint64) bool { return t.Lookup(key) != nil }

// Install inserts key with value val and returns a pointer to the stored
// value. It returns nil if both candidate sets are full and cuckoo
// relocation cannot free a way (a CAT conflict — with 6 extra ways the
// paper shows this takes ~1e30 installs). Installing a key that is already
// present is a caller bug and panics.
func (t *Table[V]) Install(key uint64, val V) *V {
	_, _, vp := t.InstallPos(key, val)
	return vp
}

// InstallPos is Install returning also the table index and set the entry
// landed in (meaningless when val is nil, i.e. on a CAT conflict).
func (t *Table[V]) InstallPos(key uint64, val V) (ti, s int, vp *V) {
	s0, s1 := t.setsOf(key)
	if _, _, dup := t.find(key, s0, s1); dup != nil {
		panic(fmt.Sprintf("cat: duplicate install of key %#x", key))
	}
	inv0, inv1 := t.invalid[0][s0], t.invalid[1][s1]
	// Power-of-two-choices: prefer the set with more invalid ways.
	ti, s = 0, s0
	if inv1 > inv0 {
		ti, s = 1, s1
	}
	if t.invalid[ti][s] == 0 {
		t.conflicts++
		if !t.relocate(s0, s1) {
			return 0, 0, nil
		}
		t.relocations++
		// After relocation at least one candidate set has a free way.
		ti, s = 0, s0
		if t.invalid[1][s1] > t.invalid[0][s0] {
			ti, s = 1, s1
		}
	}
	ss := t.setSlots(ti, s)
	for i := range ss {
		if !ss[i].valid {
			ss[i] = slot[V]{key: key, val: val, valid: true}
			t.invalid[ti][s]--
			t.size++
			return ti, s, &ss[i].val
		}
	}
	panic("cat: invalid-way accounting corrupted")
}

// relocate attempts a one-level cuckoo move: find any entry in either
// candidate set whose alternate set (in the other table) has an invalid
// way, and move it there. Reports whether a way was freed.
func (t *Table[V]) relocate(s0, s1 int) bool {
	for ti, s := range [2]int{s0, s1} {
		ss := t.setSlots(ti, s)
		alt := 1 - ti
		for i := range ss {
			if !ss[i].valid {
				continue
			}
			as, as1 := t.setsOf(ss[i].key)
			if alt == 1 {
				as = as1
			}
			if t.invalid[alt][as] == 0 {
				continue
			}
			dst := t.setSlots(alt, as)
			for j := range dst {
				if !dst[j].valid {
					dst[j] = ss[i]
					t.invalid[alt][as]--
					ss[i].valid = false
					t.invalid[ti][s]++
					return true
				}
			}
		}
	}
	return false
}

// Delete removes key and reports whether it was present.
func (t *Table[V]) Delete(key uint64) bool {
	_, _, ok := t.DeletePos(key)
	return ok
}

// DeletePos is Delete returning also the table index and set the entry
// was removed from (meaningless when ok is false).
func (t *Table[V]) DeletePos(key uint64) (ti, s int, ok bool) {
	s0, s1 := t.setsOf(key)
	if t.DeleteIn(0, s0, key) {
		return 0, s0, true
	}
	if t.DeleteIn(1, s1, key) {
		return 1, s1, true
	}
	return 0, 0, false
}

// DeleteIn removes key from set s of table ti and reports whether it was
// there. Callers that already hold the entry's position (the tracker's
// eviction scan) skip the set-index lookup and the other candidate set.
func (t *Table[V]) DeleteIn(ti, s int, key uint64) bool {
	ss := t.setSlots(ti, s)
	for i := range ss {
		if ss[i].valid && ss[i].key == key {
			var zero slot[V]
			ss[i] = zero
			t.invalid[ti][s]++
			t.size--
			return true
		}
	}
	return false
}

// ForEach calls fn for every valid entry until fn returns false. The value
// pointer may be mutated in place; keys must not be changed.
func (t *Table[V]) ForEach(fn func(key uint64, val *V) bool) {
	for ti := 0; ti < 2; ti++ {
		for i := range t.slots[ti] {
			if t.slots[ti][i].valid {
				if !fn(t.slots[ti][i].key, &t.slots[ti][i].val) {
					return
				}
			}
		}
	}
}

// RandomEntry returns a uniformly random valid entry satisfying pred
// (pred == nil accepts all). It returns ok == false if no entry qualifies.
// Selection first tries random probing, then falls back to a scan with
// reservoir sampling so it stays correct when few entries qualify.
func (t *Table[V]) RandomEntry(rng *prince.CTR, pred func(key uint64, val *V) bool) (key uint64, val *V, ok bool) {
	if t.size > 0 {
		total := t.spec.Slots()
		// Random probing succeeds quickly when the table is mostly full of
		// qualifying entries (the common case: unlocked RIT entries).
		for tries := 0; tries < 16; tries++ {
			idx := rng.Intn(total)
			ti := idx / (t.spec.Sets * t.spec.Ways)
			sl := &t.slots[ti][idx%(t.spec.Sets*t.spec.Ways)]
			if sl.valid && (pred == nil || pred(sl.key, &sl.val)) {
				return sl.key, &sl.val, true
			}
		}
	}
	// Reservoir sample over qualifying entries.
	n := 0
	for ti := 0; ti < 2; ti++ {
		for i := range t.slots[ti] {
			sl := &t.slots[ti][i]
			if sl.valid && (pred == nil || pred(sl.key, &sl.val)) {
				n++
				if rng.Intn(n) == 0 {
					key, val = sl.key, &sl.val
				}
			}
		}
	}
	return key, val, n > 0
}

// SetLoad returns, for diagnostics and the Figure 9 experiment, the number
// of valid entries in set s of table ti.
func (t *Table[V]) SetLoad(ti, s int) int {
	return t.spec.Ways - t.invalid[ti][s]
}

// Clear invalidates every entry while keeping the hash keys (a hardware
// bulk-reset of valid bits), and with them the set-index table.
func (t *Table[V]) Clear() {
	var zero slot[V]
	for ti := 0; ti < 2; ti++ {
		for i := range t.slots[ti] {
			t.slots[ti][i] = zero
		}
		for s := range t.invalid[ti] {
			t.invalid[ti][s] = t.spec.Ways
		}
	}
	t.size = 0
}

// SetsOf returns the two candidate set indices (in table 0 and table 1)
// that key hashes to. The scalable Misra-Gries tracker uses this to
// maintain its per-set minimum counters.
func (t *Table[V]) SetsOf(key uint64) (s0, s1 int) {
	return t.setsOf(key)
}

// ForEachInSet calls fn for every valid entry in set s of table ti until
// fn returns false.
func (t *Table[V]) ForEachInSet(ti, s int, fn func(key uint64, val *V) bool) {
	ss := t.setSlots(ti, s)
	for i := range ss {
		if ss[i].valid {
			if !fn(ss[i].key, &ss[i].val) {
				return
			}
		}
	}
}
