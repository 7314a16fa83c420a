package cat

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/prince"
)

func newSmall(t *testing.T) *Table[int] {
	t.Helper()
	return New[int](Spec{Sets: 8, Ways: 4}, 1)
}

func TestLookupMissingReturnsNil(t *testing.T) {
	tab := newSmall(t)
	if tab.Lookup(42) != nil {
		t.Fatal("lookup on empty table returned entry")
	}
}

func TestInstallThenLookup(t *testing.T) {
	tab := newSmall(t)
	p := tab.Install(42, 7)
	if p == nil || *p != 7 {
		t.Fatalf("install returned %v", p)
	}
	if got := tab.Lookup(42); got == nil || *got != 7 {
		t.Fatalf("lookup after install = %v", got)
	}
	if tab.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tab.Len())
	}
}

func TestInPlaceMutation(t *testing.T) {
	tab := newSmall(t)
	tab.Install(1, 10)
	*tab.Lookup(1) = 99
	if got := *tab.Lookup(1); got != 99 {
		t.Fatalf("after mutation, value = %d, want 99", got)
	}
}

func TestDelete(t *testing.T) {
	tab := newSmall(t)
	tab.Install(5, 1)
	if !tab.Delete(5) {
		t.Fatal("Delete returned false for present key")
	}
	if tab.Delete(5) {
		t.Fatal("Delete returned true for absent key")
	}
	if tab.Lookup(5) != nil {
		t.Fatal("entry still visible after delete")
	}
	if tab.Len() != 0 {
		t.Fatalf("Len = %d, want 0", tab.Len())
	}
}

// TestDeleteIn checks that DeleteIn removes a key only from the set named
// and, given the set that holds it, leaves the same state as DeletePos.
func TestDeleteIn(t *testing.T) {
	spec := Spec{Sets: 8, Ways: 4}
	fill := func() *Table[int] {
		tab := New[int](spec, 5)
		for k := uint64(0); k < 24; k++ {
			tab.Install(k*1009, int(k))
		}
		return tab
	}
	loads := func(tab *Table[int]) (l []int) {
		for ti := 0; ti < 2; ti++ {
			for s := 0; s < spec.Sets; s++ {
				l = append(l, tab.SetLoad(ti, s))
			}
		}
		return l
	}
	entries := func(tab *Table[int]) map[uint64]int {
		m := map[uint64]int{}
		tab.ForEach(func(k uint64, v *int) bool { m[k] = *v; return true })
		return m
	}
	for k := uint64(0); k < 24; k++ {
		key := k * 1009
		a, b := fill(), fill()
		ti, s, _ := a.LookupPos(key)
		want := loads(a)
		for wti := 0; wti < 2; wti++ {
			for ws := 0; ws < spec.Sets; ws++ {
				if wti == ti && ws == s {
					continue
				}
				if a.DeleteIn(wti, ws, key) {
					t.Fatalf("key %#x: DeleteIn(%d, %d) true, entry is in (%d, %d)", key, wti, ws, ti, s)
				}
			}
		}
		if a.Len() != 24 || !reflect.DeepEqual(loads(a), want) || a.Lookup(key) == nil {
			t.Fatalf("key %#x: wrong-set DeleteIn changed the table", key)
		}
		if err := a.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if !a.DeleteIn(ti, s, key) {
			t.Fatalf("key %#x: DeleteIn(%d, %d) false on its own set", key, ti, s)
		}
		if dti, ds, ok := b.DeletePos(key); !ok || dti != ti || ds != s {
			t.Fatalf("key %#x: DeletePos = (%d, %d, %v), want (%d, %d, true)", key, dti, ds, ok, ti, s)
		}
		if a.Len() != b.Len() || !reflect.DeepEqual(loads(a), loads(b)) ||
			!reflect.DeepEqual(entries(a), entries(b)) {
			t.Fatalf("key %#x: DeleteIn and DeletePos left different tables", key)
		}
		if err := a.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDuplicateInstallPanics(t *testing.T) {
	tab := newSmall(t)
	tab.Install(3, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate install")
		}
	}()
	tab.Install(3, 2)
}

func TestInstallManyNoConflictWithExtraWays(t *testing.T) {
	// 2 tables x 64 sets x 20 ways = 2560 slots; installing the paper's
	// tracker capacity (1700) must never conflict.
	tab := New[int](Spec{Sets: 64, Ways: 20}, 7)
	for i := 0; i < 1700; i++ {
		if tab.Install(uint64(i), i) == nil {
			t.Fatalf("conflict at install %d", i)
		}
	}
	if tab.Conflicts() != 0 {
		t.Fatalf("conflicts = %d, want 0", tab.Conflicts())
	}
	for i := 0; i < 1700; i++ {
		if v := tab.Lookup(uint64(i)); v == nil || *v != i {
			t.Fatalf("key %d lost or corrupted: %v", i, v)
		}
	}
}

func TestLenTracksInstallsAndDeletes(t *testing.T) {
	tab := New[int](Spec{Sets: 32, Ways: 8}, 3)
	for i := 0; i < 100; i++ {
		tab.Install(uint64(i), i)
	}
	for i := 0; i < 100; i += 2 {
		tab.Delete(uint64(i))
	}
	if tab.Len() != 50 {
		t.Fatalf("Len = %d, want 50", tab.Len())
	}
}

func TestForEachVisitsAll(t *testing.T) {
	tab := New[int](Spec{Sets: 16, Ways: 8}, 5)
	want := map[uint64]int{}
	for i := 0; i < 60; i++ {
		tab.Install(uint64(i)*3, i)
		want[uint64(i)*3] = i
	}
	got := map[uint64]int{}
	tab.ForEach(func(k uint64, v *int) bool {
		got[k] = *v
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("visited %d entries, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %d: got %d want %d", k, got[k], v)
		}
	}
}

func TestForEachEarlyStop(t *testing.T) {
	tab := New[int](Spec{Sets: 16, Ways: 8}, 5)
	for i := 0; i < 60; i++ {
		tab.Install(uint64(i), i)
	}
	visits := 0
	tab.ForEach(func(k uint64, v *int) bool {
		visits++
		return visits < 10
	})
	if visits != 10 {
		t.Fatalf("visits = %d, want 10", visits)
	}
}

func TestRandomEntryRespectsPredicate(t *testing.T) {
	tab := New[int](Spec{Sets: 16, Ways: 8}, 5)
	for i := 0; i < 100; i++ {
		tab.Install(uint64(i), i)
	}
	rng := prince.Seeded(11)
	for trial := 0; trial < 50; trial++ {
		k, v, ok := tab.RandomEntry(rng, func(_ uint64, v *int) bool { return *v%2 == 1 })
		if !ok {
			t.Fatal("no qualifying entry found")
		}
		if *v%2 != 1 || k != uint64(*v) {
			t.Fatalf("predicate violated: key=%d val=%d", k, *v)
		}
	}
}

func TestRandomEntryNoQualifier(t *testing.T) {
	tab := New[int](Spec{Sets: 16, Ways: 8}, 5)
	for i := 0; i < 10; i++ {
		tab.Install(uint64(i), i)
	}
	_, _, ok := tab.RandomEntry(prince.Seeded(1), func(uint64, *int) bool { return false })
	if ok {
		t.Fatal("RandomEntry returned ok with impossible predicate")
	}
}

func TestRandomEntryEmptyTable(t *testing.T) {
	tab := newSmall(t)
	if _, _, ok := tab.RandomEntry(prince.Seeded(1), nil); ok {
		t.Fatal("RandomEntry on empty table returned ok")
	}
}

func TestRandomEntryUniformish(t *testing.T) {
	tab := New[int](Spec{Sets: 8, Ways: 8}, 5)
	const n = 16
	for i := 0; i < n; i++ {
		tab.Install(uint64(i), i)
	}
	rng := prince.Seeded(17)
	counts := make([]int, n)
	const draws = n * 400
	for i := 0; i < draws; i++ {
		k, _, ok := tab.RandomEntry(rng, nil)
		if !ok {
			t.Fatal("no entry")
		}
		counts[k]++
	}
	for i, c := range counts {
		if c < draws/n/3 || c > draws/n*3 {
			t.Errorf("key %d drawn %d times, expected about %d", i, c, draws/n)
		}
	}
}

func TestPropertyInstallDeleteConsistency(t *testing.T) {
	// Random interleavings of installs and deletes keep Lookup consistent
	// with a map oracle.
	f := func(ops []uint16, seed uint64) bool {
		tab := New[uint64](Spec{Sets: 16, Ways: 8}, seed)
		oracle := make(map[uint64]uint64)
		for _, op := range ops {
			key := uint64(op % 97)
			if _, present := oracle[key]; present {
				tab.Delete(key)
				delete(oracle, key)
			} else if len(oracle) < 100 {
				if tab.Install(key, key*3) == nil {
					return false // conflict at trivial load
				}
				oracle[key] = key * 3
			}
			if tab.Len() != len(oracle) {
				return false
			}
		}
		for k, v := range oracle {
			p := tab.Lookup(k)
			if p == nil || *p != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSetLoadAccounting(t *testing.T) {
	tab := New[int](Spec{Sets: 4, Ways: 4}, 9)
	total := 0
	for i := 0; i < 12; i++ {
		tab.Install(uint64(i)*131, i)
	}
	for ti := 0; ti < 2; ti++ {
		for s := 0; s < 4; s++ {
			load := tab.SetLoad(ti, s)
			if load < 0 || load > 4 {
				t.Fatalf("impossible load %d", load)
			}
			total += load
		}
	}
	if total != 12 {
		t.Fatalf("sum of set loads = %d, want 12", total)
	}
}

func TestConflictAndRelocation(t *testing.T) {
	// A tiny CAT (1 set per table, 2 ways) conflicts quickly; relocation
	// cannot help since both tables have a single set. Install must return
	// nil rather than evict silently.
	tab := New[int](Spec{Sets: 1, Ways: 2}, 3)
	installed := 0
	for i := 0; i < 10; i++ {
		if tab.Install(uint64(i), i) != nil {
			installed++
		}
	}
	if installed != 4 {
		t.Fatalf("installed %d entries into 4 slots", installed)
	}
	if tab.Conflicts() == 0 {
		t.Fatal("expected conflicts on overfull tiny CAT")
	}
}

func TestInvalidSpecPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New[int](Spec{Sets: 0, Ways: 4}, 1)
}

func TestConflictExperimentMoreExtraWaysLastLonger(t *testing.T) {
	base := ConflictExperiment{
		Sets:        16,
		DemandWays:  6,
		MaxInstalls: 200000,
		Trials:      3,
		Seed:        42,
	}
	e1 := base
	e1.ExtraWays = 1
	r1 := e1.Run()
	e2 := base
	e2.ExtraWays = 2
	r2 := e2.Run()
	if r1.Conflicted == 0 {
		t.Skip("no conflict observed for 1 extra way at this scale")
	}
	if r2.Conflicted > 0 && r2.MeanInstalls < r1.MeanInstalls {
		t.Fatalf("2 extra ways conflicted sooner (%v) than 1 (%v)",
			r2.MeanInstalls, r1.MeanInstalls)
	}
}

func TestConflictExperimentDeterministic(t *testing.T) {
	e := ConflictExperiment{
		Sets: 8, DemandWays: 4, ExtraWays: 1,
		MaxInstalls: 50000, Trials: 2, Seed: 7,
	}
	a, b := e.Run(), e.Run()
	if a != b {
		t.Fatalf("experiment not deterministic: %+v vs %+v", a, b)
	}
}

func TestExtrapolateInstalls(t *testing.T) {
	measured := map[int]float64{1: 1e3, 2: 1e5}
	out := ExtrapolateInstalls(measured, 1, 4)
	// c = 5 - 2*3 = -1; E=3 -> 2*5-1 = 9; E=4 -> 2*9-1 = 17.
	if got := out[3]; got != 9 {
		t.Fatalf("E=3 log10 = %v, want 9", got)
	}
	if got := out[4]; got != 17 {
		t.Fatalf("E=4 log10 = %v, want 17", got)
	}
}

func TestExtrapolateInstallsSinglePoint(t *testing.T) {
	out := ExtrapolateInstalls(map[int]float64{2: 1e4}, 2, 4)
	if out[3] != 8 || out[4] != 16 {
		t.Fatalf("single-point extrapolation wrong: %v", out)
	}
}

func TestExtrapolateInstallsEmpty(t *testing.T) {
	if out := ExtrapolateInstalls(nil, 1, 3); len(out) != 0 {
		t.Fatalf("expected empty result, got %v", out)
	}
}

// checkSetsOf asserts SetsOf agrees with a fresh evaluation of both raw
// hashes for every key.
func checkSetsOf[V any](t *testing.T, tab *Table[V], keys []uint64) {
	t.Helper()
	for _, k := range keys {
		s0, s1 := tab.SetsOf(k)
		if w0, w1 := tab.hashSets(k); s0 != w0 || s1 != w1 {
			t.Fatalf("SetsOf(%#x) = (%d,%d), raw hashes give (%d,%d)", k, s0, s1, w0, w1)
		}
	}
}

func TestSetsOfMatchesRawHashes(t *testing.T) {
	rng := prince.Seeded(11)
	var random, aliased, big []uint64
	for i := 0; i < 2000; i++ {
		random = append(random, rng.Uint64n(1<<20))
		big = append(big, maxDenseRows+rng.Next()%(1<<40))
	}
	// sim places each core's copy of a row in the same bank 16384 rows
	// apart: the keys share their low bits.
	for base := uint64(0); base < 64; base++ {
		for c := uint64(0); c < 8; c++ {
			aliased = append(aliased, base+c*16384)
		}
	}
	big = append(big, maxDenseRows, maxDenseRows-1, ^uint64(0))
	for _, spec := range []Spec{{Sets: 64, Ways: 20}, {Sets: 256, Ways: 20}, {Sets: 1024, Ways: 4}} {
		tab := New[int](spec, 7)
		for pass := 0; pass < 2; pass++ { // fill, then served from the table
			checkSetsOf(t, tab, random)
			checkSetsOf(t, tab, aliased)
			checkSetsOf(t, tab, big)
		}
		for i, k := range random[:500] {
			if tab.Lookup(k) == nil && tab.Install(k, i) == nil {
				t.Fatalf("%+v: install %#x failed", spec, k)
			}
		}
		tab.Clear()
		checkSetsOf(t, tab, random)
		checkSetsOf(t, tab, aliased)
		if err := tab.CheckInvariants(); err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
	}
}

// TestSetsOfServedFromTable shows a key below the dense cap is hashed
// once and then answered from its populated entry, which survives Clear;
// keys at or above the cap, and every key of a geometry with more than
// 256 sets, never get an entry.
func TestSetsOfServedFromTable(t *testing.T) {
	tab := New[int](Spec{Sets: 8, Ways: 4}, 3)
	const key = 5 + 3*16384
	if tab.CorruptMemoForTest(key, 31, 31) {
		t.Fatal("entry populated before first use")
	}
	tab.SetsOf(key)
	tab.Clear()
	if !tab.CorruptMemoForTest(key, 31, 31) {
		t.Fatal("no entry after first use and Clear")
	}
	if s0, s1 := tab.SetsOf(key); s0 != 31 || s1 != 31 {
		t.Fatalf("SetsOf = (%d,%d), want the stored (31,31)", s0, s1)
	}
	if err := tab.CheckInvariants(); err == nil {
		t.Fatal("rewritten entry passed CheckInvariants")
	}
	tab.SetsOf(maxDenseRows)
	if tab.CorruptMemoForTest(maxDenseRows, 0, 0) {
		t.Fatal("key at the dense cap got an entry")
	}
	wide := New[int](Spec{Sets: 512, Ways: 4}, 3)
	wide.SetsOf(key)
	if wide.CorruptMemoForTest(key, 0, 0) {
		t.Fatal("512-set table stored a set-index entry")
	}
}

func BenchmarkLookupHit(b *testing.B) {
	tab := New[int](Spec{Sets: 256, Ways: 20}, 1)
	for i := 0; i < 3400; i++ {
		tab.Install(uint64(i), i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Lookup(uint64(i % 3400))
	}
}

func BenchmarkLookupMiss(b *testing.B) {
	tab := New[int](Spec{Sets: 256, Ways: 20}, 1)
	for i := 0; i < 3400; i++ {
		tab.Install(uint64(i), i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Lookup(uint64(i%3400) + (1 << 20))
	}
}

// BenchmarkSetsOfAliased looks up 8 copies of 64 rows spaced 16384 apart
// (sim's per-core layout within a bank) on a warm table.
func BenchmarkSetsOfAliased(b *testing.B) {
	tab := New[int](Spec{Sets: 64, Ways: 20}, 1)
	keys := make([]uint64, 0, 512)
	for base := uint64(0); base < 64; base++ {
		for c := uint64(0); c < 8; c++ {
			keys = append(keys, base*97+c*16384)
		}
	}
	benchSetsOf(b, tab, keys)
}

// BenchmarkSetsOfSparse looks up 40 K rows scattered over a 128 K-row
// bank on a warm table.
func BenchmarkSetsOfSparse(b *testing.B) {
	tab := New[int](Spec{Sets: 64, Ways: 20}, 1)
	rng := prince.Seeded(2)
	keys := make([]uint64, 40_000)
	for i := range keys {
		keys[i] = rng.Uint64n(1 << 17)
	}
	benchSetsOf(b, tab, keys)
}

func benchSetsOf(b *testing.B, tab *Table[int], keys []uint64) {
	for _, k := range keys {
		tab.SetsOf(k)
	}
	var sink int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s0, s1 := tab.SetsOf(keys[i%len(keys)])
		sink += s0 ^ s1
	}
	_ = sink
}
