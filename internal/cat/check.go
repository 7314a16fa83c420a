package cat

import (
	"repro/internal/invariant"
)

// CheckInvariants verifies the table's structural invariants and returns
// a typed *invariant.Violation describing the first mismatch:
//
//   - cat/occupancy: per-set invalid-way counters equal the number of
//     invalid slots in that set, and no key is stored twice.
//   - cat/placement: every valid slot's key hashes to the set holding it
//     (recomputed from the raw hashes, bypassing the set-index table).
//   - cat/size: the size counter equals the number of valid slots.
//   - cat/memo: every populated entry of the dense set-index table agrees
//     with a fresh evaluation of both hash functions for the key its
//     position names.
//
// Cost is O(slots + populated set-index entries); the paranoid engine
// runs it on a cadence.
func (t *Table[V]) CheckInvariants() error {
	seen := make(map[uint64]struct{}, t.size)
	total := 0
	for ti := 0; ti < 2; ti++ {
		for s := 0; s < t.spec.Sets; s++ {
			valid := 0
			ss := t.setSlots(ti, s)
			for i := range ss {
				if !ss[i].valid {
					continue
				}
				valid++
				key := ss[i].key
				if _, dup := seen[key]; dup {
					return invariant.Violatedf("cat/occupancy",
						"key %#x stored in more than one slot", key)
				}
				seen[key] = struct{}{}
				if want := t.setIndex(ti, key); want != s {
					return invariant.Violatedf("cat/placement",
						"key %#x sits in table %d set %d but hashes to set %d",
						key, ti, s, want)
				}
			}
			if inv := t.invalid[ti][s]; inv != t.spec.Ways-valid {
				return invariant.Violatedf("cat/occupancy",
					"table %d set %d: invalid-way counter %d, actual invalid ways %d",
					ti, s, inv, t.spec.Ways-valid)
			}
			total += valid
		}
	}
	if total != t.size {
		return invariant.Violatedf("cat/size",
			"size counter %d, valid slots %d", t.size, total)
	}
	for p, pg := range t.pages {
		if pg == nil {
			continue
		}
		for i, e := range pg.sets {
			if pg.filled[i/64]&(1<<(i%64)) == 0 {
				continue
			}
			key := uint64(p)*densePageRows + uint64(i)
			if s0, s1 := t.hashSets(key); int(e>>8) != s0 || int(e&0xFF) != s1 {
				return invariant.Violatedf("cat/memo",
					"set-index entry for key %#x holds sets (%d,%d), hashes give (%d,%d)",
					key, e>>8, e&0xFF, s0, s1)
			}
		}
	}
	return nil
}

// --- Test-only state corruption hooks ---
//
// The fault-injection suite (internal/invariant) uses these narrow
// mutators to flip bits in the table's redundant state and prove the
// checker detects every corruption class. They exist for tests only and
// must never be called by production code.

// CorruptMemoForTest overwrites key's populated set-index entry with the
// given candidate sets (truncated to a byte each), reporting whether key
// had one.
func (t *Table[V]) CorruptMemoForTest(key uint64, s0, s1 int32) bool {
	e := t.entry(key)
	if e == nil {
		return false
	}
	*e = uint16(s0&0xFF)<<8 | uint16(s1&0xFF)
	return true
}

// CorruptInvalidCountForTest skews one set's invalid-way counter.
func (t *Table[V]) CorruptInvalidCountForTest(ti, s, delta int) {
	t.invalid[ti][s] += delta
}

// CorruptSizeForTest skews the size counter.
func (t *Table[V]) CorruptSizeForTest(delta int) { t.size += delta }

// CorruptKeyForTest rewrites the stored key of oldKey's slot to newKey
// without touching any index, reporting whether oldKey was present.
func (t *Table[V]) CorruptKeyForTest(oldKey, newKey uint64) bool {
	for ti := 0; ti < 2; ti++ {
		for i := range t.slots[ti] {
			if t.slots[ti][i].valid && t.slots[ti][i].key == oldKey {
				t.slots[ti][i].key = newKey
				return true
			}
		}
	}
	return false
}

// DropEntryForTest clears the valid bit of key's slot without updating
// the invalid-way counter or size, reporting whether key was present.
func (t *Table[V]) DropEntryForTest(key uint64) bool {
	for ti := 0; ti < 2; ti++ {
		for i := range t.slots[ti] {
			if t.slots[ti][i].valid && t.slots[ti][i].key == key {
				t.slots[ti][i].valid = false
				return true
			}
		}
	}
	return false
}
