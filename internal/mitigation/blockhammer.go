package mitigation

import (
	"repro/internal/config"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/prince"
)

// BlockHammer is the delay-based aggressor-focused baseline (Yağlıkçı et
// al., HPCA 2021): per-bank counting Bloom filters estimate each row's
// activation count; rows whose estimate crosses the blacklisting threshold
// N_BL have their subsequent activations spaced out so that no row can
// reach T_RH activations within the refresh window.
//
// Simplifications versus the original (documented in DESIGN.md): a single
// Bloom filter cleared at each epoch stands in for the original's dual
// rotating filters, and the row-activation history buffer is modeled as a
// per-row last-activation timestamp. Both preserve the throttling
// behaviour that drives the paper's Figure 11 comparison: rows mapping to
// hot filter entries get every activation delayed by tDelay ≈
// window/(T_RH - N_BL), ~20 us at T_RH = 4.8K.
type BlockHammer struct {
	sys *dram.System
	cfg config.Config

	counters  [][]uint32 // per bank: m counters
	hashes    []*prince.Hash64
	idx       []uint64 // the last estimated row's counter indices, one per hash
	m         int
	blacklist uint32
	tDelay    int64

	lastAct []map[int]int64 // per bank: blacklisted row -> last ACT time

	stat BlockHammerStats
}

// BlockHammerStats counts throttling activity.
type BlockHammerStats struct {
	// BlacklistedActs is the number of activations that hit a blacklisted
	// filter estimate.
	BlacklistedActs int64
	// DelayCycles is the total imposed delay.
	DelayCycles int64
}

// BlockHammerParams configures the defense.
type BlockHammerParams struct {
	// BlacklistThreshold is N_BL (the paper's Figure 11 uses 512 and 1K).
	BlacklistThreshold uint32
	// Counters is the number of Bloom filter counters per bank.
	Counters int
	// Hashes is the number of hash functions.
	Hashes int
	// Seed keys the hash functions.
	Seed uint64
}

// DefaultBlockHammerParams returns the configuration used for the paper's
// comparison at N_BL = 512.
func DefaultBlockHammerParams() BlockHammerParams {
	return BlockHammerParams{BlacklistThreshold: 512, Counters: 1024, Hashes: 3, Seed: 0xb10cc4a3}
}

// NewBlockHammer creates the mitigation over sys.
func NewBlockHammer(sys *dram.System, p BlockHammerParams) *BlockHammer {
	cfg := sys.Config()
	if p.Counters <= 0 || p.Hashes <= 0 || p.BlacklistThreshold == 0 {
		panic("mitigation: invalid BlockHammer parameters")
	}
	nBanks := cfg.Channels * cfg.Ranks * cfg.Banks
	b := &BlockHammer{
		sys:       sys,
		cfg:       cfg,
		counters:  make([][]uint32, nBanks),
		hashes:    make([]*prince.Hash64, p.Hashes),
		idx:       make([]uint64, p.Hashes),
		m:         p.Counters,
		blacklist: p.BlacklistThreshold,
		lastAct:   make([]map[int]int64, nBanks),
	}
	for i := range b.counters {
		b.counters[i] = make([]uint32, p.Counters)
		b.lastAct[i] = make(map[int]int64)
	}
	kg := prince.Seeded(p.Seed)
	for i := range b.hashes {
		b.hashes[i] = prince.NewHash64(kg.Next(), kg.Next())
	}
	// After blacklisting at N_BL estimated activations, the row may
	// receive at most T_RH/2 - N_BL - 1 more ACTs per window, one per
	// tDelay — the /2 margin covers double-sided attacks where a victim
	// accumulates disturbance from two throttled aggressors at once.
	budget := int64(cfg.RowHammerThreshold)/2 - int64(p.BlacklistThreshold) - 1
	if budget < 1 {
		budget = 1
	}
	b.tDelay = cfg.EpochCycles / budget
	return b
}

// Stats returns throttling counters.
func (b *BlockHammer) Stats() BlockHammerStats { return b.stat }

// TDelay returns the enforced activation spacing for blacklisted rows, in
// bus cycles.
func (b *BlockHammer) TDelay() int64 { return b.tDelay }

// estimate returns the Bloom filter's activation estimate for row and
// leaves row's counter indices in b.idx.
func (b *BlockHammer) estimate(bank int, row int) uint32 {
	min := uint32(1<<32 - 1)
	for i, h := range b.hashes {
		b.idx[i] = h.Sum(uint64(row)) % uint64(b.m)
		if c := b.counters[bank][b.idx[i]]; c < min {
			min = c
		}
	}
	return min
}

// Remap implements memctrl.Mitigation (identity: no indirection).
func (b *BlockHammer) Remap(_ dram.BankID, row int) int { return row }

// AccessPenalty implements memctrl.Mitigation.
func (b *BlockHammer) AccessPenalty() int64 { return 0 }

// ActivateDelay implements memctrl.Mitigation: blacklisted rows are
// spaced tDelay apart.
func (b *BlockHammer) ActivateDelay(id dram.BankID, row int, now int64) int64 {
	bank := bankIndex(b.cfg, id)
	if b.estimate(bank, row) < b.blacklist {
		return 0
	}
	b.stat.BlacklistedActs++
	last, seen := b.lastAct[bank][row]
	if !seen {
		return 0
	}
	earliest := last + b.tDelay
	if earliest <= now {
		return 0
	}
	d := earliest - now
	b.stat.DelayCycles += d
	return d
}

// OnActivate implements memctrl.Mitigation: count the row in the filter
// (conservative update: only the minimal counters increment, reducing
// false positives) and remember blacklisted rows' activation times.
func (b *BlockHammer) OnActivate(id dram.BankID, row, _ int, now int64) memctrl.ActResult {
	bank := bankIndex(b.cfg, id)
	min := b.estimate(bank, row)
	for _, i := range b.idx {
		if b.counters[bank][i] == min {
			b.counters[bank][i]++
		}
	}
	if min+1 >= b.blacklist {
		b.lastAct[bank][row] = now
	}
	return memctrl.ActResult{}
}

// OnEpoch implements memctrl.Mitigation: clear filters and history.
func (b *BlockHammer) OnEpoch(int64) {
	for i := range b.counters {
		clear(b.counters[i])
		clear(b.lastAct[i])
	}
}
