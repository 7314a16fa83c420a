package cat

import "testing"

// TestLookupAllocFree pins the hot-path contract: Lookup (hit and miss,
// through the dense set-index table) performs no allocations.
func TestLookupAllocFree(t *testing.T) {
	tab := New[int64](Spec{Sets: 64, Ways: 20}, 5)
	for i := uint64(0); i < 1700; i++ {
		if tab.Install(i, int64(i)) == nil {
			t.Fatalf("install %d failed", i)
		}
	}
	var sink int64
	if avg := testing.AllocsPerRun(500, func() {
		if p := tab.Lookup(7); p != nil {
			sink += *p
		}
		if p := tab.Lookup(900_000); p != nil {
			sink += *p
		}
	}); avg != 0 {
		t.Fatalf("Lookup allocates %.2f allocs/run, want 0 (sink %d)", avg, sink)
	}
}

// TestSetsOfAllocFree pins the set-index fast path: once a key's page is
// allocated and its entry filled, SetsOf performs no allocations.
func TestSetsOfAllocFree(t *testing.T) {
	tab := New[int64](Spec{Sets: 64, Ways: 20}, 5)
	keys := []uint64{3, 3 + 16384, 3 + 7*16384, 255}
	for _, k := range keys {
		tab.SetsOf(k)
	}
	var sink int
	if avg := testing.AllocsPerRun(500, func() {
		for _, k := range keys {
			s0, s1 := tab.SetsOf(k)
			sink += s0 + s1
		}
	}); avg != 0 {
		t.Fatalf("SetsOf allocates %.2f allocs/run, want 0 (sink %d)", avg, sink)
	}
}
