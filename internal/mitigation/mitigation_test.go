package mitigation

import (
	"testing"

	"repro/internal/config"
	"repro/internal/dram"
	"repro/internal/memctrl"
)

func testConfig() config.Config {
	cfg := config.Default()
	cfg.RowsPerBank = 4 << 10
	cfg.EpochCycles = int64(cfg.TRC) * 800 // ACT_max = 800
	cfg.RowHammerThreshold = 48
	return cfg
}

func TestDefaultPARAProbability(t *testing.T) {
	if p := DefaultPARAProbability(4800); p <= 0 || p > 0.01 {
		t.Fatalf("p = %v for T_RH 4800", p)
	}
	if p := DefaultPARAProbability(4); p != 1 {
		t.Fatalf("p = %v for tiny T_RH, want clamped to 1", p)
	}
	if p := DefaultPARAProbability(0); p != 1 {
		t.Fatalf("p = %v for zero T_RH", p)
	}
}

func TestPARARefreshesNeighbors(t *testing.T) {
	sys := dram.MustNew(testConfig())
	m := NewPARA(sys, 1.0, 1) // always refresh
	id := dram.BankID{}
	res := m.OnActivate(id, 100, 100, 0)
	if res.BankBlock == 0 {
		t.Fatal("no bank time charged")
	}
	if sys.ActCount(id, 99) != 1 || sys.ActCount(id, 101) != 1 {
		t.Fatalf("neighbours not refreshed: %d/%d",
			sys.ActCount(id, 99), sys.ActCount(id, 101))
	}
	if m.Stats().Mitigations != 1 || m.Stats().Refreshes != 2 {
		t.Fatalf("stats %+v", m.Stats())
	}
}

func TestPARAProbabilityZeroNeverFires(t *testing.T) {
	sys := dram.MustNew(testConfig())
	m := NewPARA(sys, 0, 1)
	id := dram.BankID{}
	for i := 0; i < 1000; i++ {
		if res := m.OnActivate(id, 100, 100, int64(i)); res.BankBlock != 0 {
			t.Fatal("PARA fired at p=0")
		}
	}
}

func TestPARAEdgeRowClamped(t *testing.T) {
	sys := dram.MustNew(testConfig())
	m := NewPARA(sys, 1.0, 1)
	id := dram.BankID{}
	m.OnActivate(id, 0, 0, 0) // row 0: only +1 neighbour exists
	if m.Stats().Refreshes != 1 {
		t.Fatalf("refreshes = %d, want 1", m.Stats().Refreshes)
	}
}

func TestGrapheneRefreshAtThreshold(t *testing.T) {
	sys := dram.MustNew(testConfig())
	m := NewGraphene(sys, 8, 1, 1)
	id := dram.BankID{}
	for i := 0; i < 7; i++ {
		if res := m.OnActivate(id, 100, 100, int64(i)); res.BankBlock != 0 {
			t.Fatalf("fired at activation %d", i)
		}
	}
	res := m.OnActivate(id, 100, 100, 7)
	if res.BankBlock == 0 {
		t.Fatal("did not fire at threshold")
	}
	if sys.ActCount(id, 99) != 1 || sys.ActCount(id, 101) != 1 {
		t.Fatal("neighbours not refreshed")
	}
	// Aggressor's own count untouched by the mitigation (the controller
	// counts the aggressor's ACTs, not the mitigation).
	if sys.ActCount(id, 100) != 0 {
		t.Fatalf("aggressor count = %d", sys.ActCount(id, 100))
	}
}

func TestGrapheneBlastRadiusTwo(t *testing.T) {
	sys := dram.MustNew(testConfig())
	m := NewGraphene(sys, 4, 2, 1)
	id := dram.BankID{}
	for i := 0; i < 4; i++ {
		m.OnActivate(id, 100, 100, int64(i))
	}
	for _, v := range []int{98, 99, 101, 102} {
		if sys.ActCount(id, v) != 1 {
			t.Fatalf("row %d not refreshed", v)
		}
	}
	if m.Stats().Refreshes != 4 {
		t.Fatalf("refreshes = %d", m.Stats().Refreshes)
	}
}

func TestGrapheneFiresAtEveryMultiple(t *testing.T) {
	sys := dram.MustNew(testConfig())
	m := NewGraphene(sys, 8, 1, 1)
	id := dram.BankID{}
	for i := 0; i < 24; i++ {
		m.OnActivate(id, 100, 100, int64(i))
	}
	if m.Stats().Mitigations != 3 {
		t.Fatalf("mitigations = %d, want 3", m.Stats().Mitigations)
	}
}

func TestGrapheneEpochReset(t *testing.T) {
	sys := dram.MustNew(testConfig())
	m := NewGraphene(sys, 8, 1, 1)
	id := dram.BankID{}
	for i := 0; i < 7; i++ {
		m.OnActivate(id, 100, 100, int64(i))
	}
	m.OnEpoch(100)
	// Seven more activations: without reset this would cross the
	// threshold; with reset it must not.
	for i := 0; i < 7; i++ {
		m.OnActivate(id, 100, 100, int64(100+i))
	}
	if m.Stats().Mitigations != 0 {
		t.Fatalf("mitigations = %d after reset", m.Stats().Mitigations)
	}
}

func TestIdealRefreshesExactly(t *testing.T) {
	sys := dram.MustNew(testConfig())
	m := NewIdeal(sys, 8)
	id := dram.BankID{}
	for i := 0; i < 17; i++ {
		m.OnActivate(id, 100, 100, int64(i))
	}
	if m.Stats().Mitigations != 2 {
		t.Fatalf("mitigations = %d, want 2", m.Stats().Mitigations)
	}
	if sys.ActCount(id, 99) != 2 {
		t.Fatalf("victim refreshes = %d", sys.ActCount(id, 99))
	}
}

func TestIdealFreeHasNoCost(t *testing.T) {
	sys := dram.MustNew(testConfig())
	m := NewIdeal(sys, 1) // fire every activation
	id := dram.BankID{}
	if res := m.OnActivate(id, 100, 100, 0); res.BankBlock != 0 {
		t.Fatal("idealized mitigation charged bank time")
	}
	m.Free = false
	if res := m.OnActivate(id, 100, 100, 1); res.BankBlock == 0 {
		t.Fatal("non-free mitigation charged nothing")
	}
}

func TestBlockHammerBlacklistsHotRow(t *testing.T) {
	cfg := testConfig()
	sys := dram.MustNew(cfg)
	p := DefaultBlockHammerParams()
	p.BlacklistThreshold = 8
	b := NewBlockHammer(sys, p)
	id := dram.BankID{}

	// Below threshold: no delay.
	now := int64(0)
	for i := 0; i < 8; i++ {
		if d := b.ActivateDelay(id, 100, now); d != 0 {
			t.Fatalf("delayed before blacklisting (act %d)", i)
		}
		b.OnActivate(id, 100, 100, now)
		now += int64(cfg.TRC)
	}
	// Now blacklisted: back-to-back ACTs must be spaced tDelay apart.
	d := b.ActivateDelay(id, 100, now)
	if d == 0 {
		t.Fatal("no delay after crossing blacklist threshold")
	}
	if want := b.TDelay() - int64(cfg.TRC); d != want {
		t.Fatalf("delay = %d, want %d", d, want)
	}
	if b.Stats().BlacklistedActs == 0 || b.Stats().DelayCycles == 0 {
		t.Fatalf("stats %+v", b.Stats())
	}
}

// BenchmarkBlockHammerOnActivate measures one filter update at the default
// three hashes, cycling over 4096 rows of one bank.
func BenchmarkBlockHammerOnActivate(b *testing.B) {
	cfg := testConfig()
	bh := NewBlockHammer(dram.MustNew(cfg), DefaultBlockHammerParams())
	id := dram.BankID{}
	step := int64(cfg.TRC)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row := i * 97 % 4096
		bh.OnActivate(id, row, row, int64(i)*step)
	}
}

func TestBlockHammerColdRowsUndisturbed(t *testing.T) {
	cfg := testConfig()
	sys := dram.MustNew(cfg)
	p := DefaultBlockHammerParams()
	p.BlacklistThreshold = 8
	b := NewBlockHammer(sys, p)
	id := dram.BankID{}
	// Hammer row 100 past the threshold.
	for i := 0; i < 20; i++ {
		b.OnActivate(id, 100, 100, int64(i))
	}
	// A different row (unless it aliases, which 3 hashes into 1024
	// counters makes essentially impossible for one hot row) is free.
	if d := b.ActivateDelay(id, 2222, 1000); d != 0 {
		t.Fatalf("cold row delayed by %d", d)
	}
}

func TestBlockHammerTDelayMagnitude(t *testing.T) {
	// At full scale, T_RH=4.8K and N_BL=512: tDelay = 64ms/1887 ~ 34us,
	// the paper's "approximately 20 microseconds" regime (tens of us).
	cfg := config.Default()
	sys := dram.MustNew(cfg)
	b := NewBlockHammer(sys, DefaultBlockHammerParams())
	us := float64(b.TDelay()) / (config.BusGHz * 1e3)
	if us < 15 || us > 50 {
		t.Fatalf("tDelay = %.1f us, want 15-50 us", us)
	}
}

func TestBlockHammerEpochClearsBlacklist(t *testing.T) {
	cfg := testConfig()
	sys := dram.MustNew(cfg)
	p := DefaultBlockHammerParams()
	p.BlacklistThreshold = 8
	b := NewBlockHammer(sys, p)
	id := dram.BankID{}
	for i := 0; i < 20; i++ {
		b.OnActivate(id, 100, 100, int64(i))
	}
	b.OnEpoch(100)
	if d := b.ActivateDelay(id, 100, 101); d != 0 {
		t.Fatalf("row still blacklisted after epoch: delay %d", d)
	}
}

func TestBlockHammerNeverBlocksOrRemaps(t *testing.T) {
	sys := dram.MustNew(testConfig())
	b := NewBlockHammer(sys, DefaultBlockHammerParams())
	id := dram.BankID{}
	if b.Remap(id, 7) != 7 {
		t.Fatal("BlockHammer remapped")
	}
	if res := b.OnActivate(id, 7, 7, 0); res != (memctrl.ActResult{}) {
		t.Fatal("BlockHammer blocked")
	}
}

func TestBlockHammerInvalidParamsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBlockHammer(dram.MustNew(testConfig()), BlockHammerParams{})
}

// TestVictimRefreshDisturbsAtDistanceTwo verifies the Half-Double enabling
// mechanism: a victim refresh is an activation, so listeners (the fault
// model) see activity on the aggressor's neighbours.
func TestVictimRefreshDisturbsAtDistanceTwo(t *testing.T) {
	sys := dram.MustNew(testConfig())
	m := NewGraphene(sys, 4, 1, 1)
	seen := map[int]int{}
	sys.Subscribe(listenerFunc(func(_ dram.BankID, row int, _ int64) {
		seen[row]++
	}))
	id := dram.BankID{}
	for i := 0; i < 4; i++ {
		m.OnActivate(id, 100, 100, int64(i))
	}
	if seen[99] != 1 || seen[101] != 1 {
		t.Fatalf("refresh activations not observable: %v", seen)
	}
}

type listenerFunc func(dram.BankID, int, int64)

func (f listenerFunc) OnActivate(id dram.BankID, row int, now int64) { f(id, row, now) }
