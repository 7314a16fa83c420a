package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cat"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/prince"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tracker"
)

// The traced simulation run measures each layer from outside sim.Run:
// it feeds sim.Options.Readers the generators sim would build (same
// per-core seed, hot-row split and address offset), wraps the real
// mitigation (including its memctrl.Batcher extension) in a timing
// shim, and records the row and address streams. Its statistics must
// equal an untraced run's exactly. The recorded streams then drive
// replay micro-benchmarks of the layers the timing shims cannot reach,
// so each micro-benchmark works on the workload's own working set.

var clockBase = time.Now()

// nanotime reads the monotonic clock.
func nanotime() int64 { return int64(time.Since(clockBase)) }

// calibrateTimer returns the interval two back-to-back clock reads
// measure with nothing between them; per-call timings subtract it.
func calibrateTimer() float64 {
	const n = 1 << 20
	var sum int64
	for i := 0; i < n; i++ {
		t0 := nanotime()
		sum += nanotime() - t0
	}
	return float64(sum) / n
}

// layerClock accumulates one boundary's per-call timings.
type layerClock struct {
	calls, ns int64
}

// corrected returns the total time less the clock-read interval per call.
func (l layerClock) corrected(timer float64) time.Duration {
	return time.Duration(max(float64(l.ns)-timer*float64(l.calls), 0))
}

// perCall returns the corrected mean ns per call.
func (l layerClock) perCall(timer float64) float64 {
	if l.calls == 0 {
		return 0
	}
	return float64(l.corrected(timer)) / float64(l.calls)
}

// recordCap bounds each recorded stream (and so the replay length).
const recordCap = 1 << 20

// llcHitBusCycles mirrors sim's LLC fill hop added to load completions.
const llcHitBusCycles = 15

// tracedReader is one core's trace source: the generator sim would
// build, behind sim's per-core address offset, timed on every Next and
// recorded up to a cap.
type tracedReader struct {
	gen         *trace.Generator
	offset, mod uint64
	clock       *layerClock
	recs        []trace.Record
	limit       int
}

func (r *tracedReader) Next() (trace.Record, bool) {
	t0 := nanotime()
	rec, ok := r.gen.Next()
	r.clock.ns += nanotime() - t0
	r.clock.calls++
	if !ok {
		return trace.Record{}, false
	}
	rec.Line = (rec.Line + r.offset) % r.mod
	if len(r.recs) < r.limit {
		r.recs = append(r.recs, rec)
	}
	return rec, true
}

// coreGenerator builds core i's generator exactly as sim's sequential
// engine does.
func coreGenerator(opts sim.Options, i int) *trace.Generator {
	cfg := opts.Config
	w := opts.Workloads[i%len(opts.Workloads)]
	share := w.HotRows / cfg.Cores
	if i < w.HotRows%cfg.Cores {
		share++
	}
	w.HotRows = share
	return trace.NewGenerator(w, trace.GeneratorParams{
		LineBytes: cfg.LineBytes,
		RowBytes:  cfg.RowBytes,
		HotShare:  opts.HotShare,
		Seed:      trace.PerCoreSeed(opts.Seed, i),
	})
}

func tracedReaders(opts sim.Options, clock *layerClock) []*tracedReader {
	cfg := opts.Config
	totalLines := uint64(cfg.MemoryBytes()) / uint64(cfg.LineBytes)
	out := make([]*tracedReader, cfg.Cores)
	for i := range out {
		out[i] = &tracedReader{
			gen:    coreGenerator(opts, i),
			offset: uint64(i) * (totalLines / uint64(cfg.Cores)),
			mod:    totalLines,
			clock:  clock,
			limit:  recordCap / cfg.Cores,
		}
	}
	return out
}

// Mitigation event kinds.
const (
	evAct = iota
	evActN
	evEpoch
)

// mitEvent is one recorded mitigation notification.
type mitEvent struct {
	now       int64
	row, phys uint32
	n         uint32
	bank      uint16
	kind      uint8
}

// tracedMit wraps the real RRS mitigation, timing and recording every
// call. It forwards memctrl.Batcher so the controller batches exactly
// as it would without the wrapper.
type tracedMit struct {
	inner             *core.RRS
	cfg               config.Config
	remap, act, epoch layerClock
	batched, single   int64
	remaps            []uint64 // flat bank << 32 | logical row
	events            []mitEvent
	touched           [][]uint64 // per-bank bitset of activated logical rows
	touchedRows       []int
}

var (
	_ memctrl.Mitigation = (*tracedMit)(nil)
	_ memctrl.Batcher    = (*tracedMit)(nil)
)

func newTracedMit(inner *core.RRS, cfg config.Config) *tracedMit {
	banks := cfg.Channels * cfg.Ranks * cfg.Banks
	m := &tracedMit{inner: inner, cfg: cfg,
		touched: make([][]uint64, banks), touchedRows: make([]int, banks)}
	for i := range m.touched {
		m.touched[i] = make([]uint64, (cfg.RowsPerBank+63)/64)
	}
	return m
}

func flatBank(cfg config.Config, id dram.BankID) int {
	return (id.Channel*cfg.Ranks+id.Rank)*cfg.Banks + id.Bank
}

func bankID(cfg config.Config, flat int) dram.BankID {
	return dram.BankID{Channel: flat / (cfg.Ranks * cfg.Banks),
		Rank: flat / cfg.Banks % cfg.Ranks, Bank: flat % cfg.Banks}
}

func (m *tracedMit) Remap(id dram.BankID, row int) int {
	t0 := nanotime()
	p := m.inner.Remap(id, row)
	m.remap.ns += nanotime() - t0
	m.remap.calls++
	if len(m.remaps) < recordCap {
		m.remaps = append(m.remaps, uint64(flatBank(m.cfg, id))<<32|uint64(row))
	}
	return p
}

func (m *tracedMit) ActivateDelay(id dram.BankID, row int, now int64) int64 {
	return m.inner.ActivateDelay(id, row, now)
}

func (m *tracedMit) OnActivate(id dram.BankID, row, physRow int, now int64) memctrl.ActResult {
	t0 := nanotime()
	r := m.inner.OnActivate(id, row, physRow, now)
	m.act.ns += nanotime() - t0
	m.act.calls++
	m.single++
	b := flatBank(m.cfg, id)
	if w, bit := &m.touched[b][row/64], uint64(1)<<(row%64); *w&bit == 0 {
		*w |= bit
		m.touchedRows[b]++
	}
	m.record(mitEvent{now: now, row: uint32(row), phys: uint32(physRow), bank: uint16(b), kind: evAct})
	return r
}

func (m *tracedMit) OnActivateN(id dram.BankID, row, physRow int, now int64, n int64) {
	t0 := nanotime()
	m.inner.OnActivateN(id, row, physRow, now, n)
	m.act.ns += nanotime() - t0
	m.act.calls++
	m.batched += n
	m.record(mitEvent{now: now, row: uint32(row), phys: uint32(physRow), n: uint32(n),
		bank: uint16(flatBank(m.cfg, id)), kind: evActN})
}

func (m *tracedMit) AccessPenalty() int64 { return m.inner.AccessPenalty() }

func (m *tracedMit) OnEpoch(now int64) {
	t0 := nanotime()
	m.inner.OnEpoch(now)
	m.epoch.ns += nanotime() - t0
	m.epoch.calls++
	m.record(mitEvent{now: now, kind: evEpoch})
}

func (m *tracedMit) record(ev mitEvent) {
	if len(m.events) < recordCap {
		m.events = append(m.events, ev)
	}
}

// swapsPerEpoch derives Result.SwapsPerEpoch from RRS statistics the way
// sim does; the wrapper hides the *core.RRS from sim's own lookup.
func swapsPerEpoch(st core.Stats) float64 {
	if n := len(st.SwapsPerEpoch); n > 0 {
		var sum int64
		for _, v := range st.SwapsPerEpoch {
			sum += v
		}
		return float64(sum) / float64(n)
	}
	return float64(st.EpochSwaps)
}

// tracedSim is one traced sim.Run and everything it recorded.
type tracedSim struct {
	stats   simStats
	mit     *tracedMit
	readers []*tracedReader
	next    layerClock
}

// runTraced runs opts with the timing shims in place.
func runTraced(opts sim.Options) (*tracedSim, error) {
	ts := &tracedSim{}
	readers := tracedReaders(opts, &ts.next)
	topts := opts
	topts.Readers = make([]trace.Reader, len(readers))
	for i, r := range readers {
		topts.Readers[i] = r
	}
	ts.readers = readers
	var buildErr error
	topts.Mitigation = func(sys *dram.System) memctrl.Mitigation {
		inner, ok := opts.Mitigation(sys).(*core.RRS)
		if !ok {
			buildErr = fmt.Errorf("traced run needs an RRS mitigation")
			return nil
		}
		ts.mit = newTracedMit(inner, sys.Config())
		return ts.mit
	}
	res, err := sim.Run(topts)
	if err == nil {
		err = buildErr
	}
	if err != nil {
		return nil, err
	}
	ts.stats = statsOf(res)
	ts.stats.SwapsPerEpoch = swapsPerEpoch(ts.mit.inner.Stats())
	return ts, nil
}

// simTraced is the traced run of a simulation workload.
func simTraced(base simCase) func(context.Context, runConfig) (*outcome, error) {
	return func(ctx context.Context, rc runConfig) (*outcome, error) {
		c := base.withSeed(rc.seed)
		opts, err := c.spec.Options()
		if err != nil {
			return nil, err
		}
		timer := calibrateTimer()
		tr := newTracer()
		out := newOutcome()

		runtime.GC()
		sp := tr.begin("sim.run.untraced", 0, 0)
		ref, err := sim.Run(opts)
		wallU := tr.end(sp)
		if err != nil {
			return nil, err
		}
		refStats := statsOf(ref)
		if err := gateStats(c, c.pinName, []simStats{refStats}); err != nil {
			return nil, err
		}

		runtime.GC()
		runSpan := tr.begin("sim.run.traced", 0, sp)
		ts, err := runTraced(opts)
		wallT := tr.end(runSpan)
		if err != nil {
			return nil, err
		}
		if ts.stats != refStats {
			return nil, fmt.Errorf("tracing changed the simulation:\n  traced   %+v\n  untraced %+v", ts.stats, refStats)
		}
		m := ts.mit
		tr.aggregate("trace.Generator.Next", runSpan, ts.next.calls, ts.next.corrected(timer))
		tr.aggregate("mit.Remap", runSpan, m.remap.calls, m.remap.corrected(timer))
		tr.aggregate("mit.OnActivate", runSpan, m.act.calls, m.act.corrected(timer))
		tr.aggregate("mit.OnEpoch", runSpan, m.epoch.calls, m.epoch.corrected(timer))
		mitTotal := m.remap.corrected(timer) + m.act.corrected(timer) + m.epoch.corrected(timer)
		wall := float64(wallT)
		out.metrics["trace.share"] = float64(ts.next.corrected(timer)) / wall
		out.metrics["mit.activate_ns"] = m.act.perCall(timer)
		out.metrics["mit.activate_calls"] = float64(m.act.calls)
		out.metrics["mit.remap_ns"] = m.remap.perCall(timer)
		out.metrics["mit.remap_calls"] = float64(m.remap.calls)
		out.metrics["mit.batch_ratio"] = float64(m.batched) / float64(max(m.batched+m.single, 1))
		out.metrics["mit.share"] = float64(mitTotal) / wall
		out.metrics["engine.self_share"] = float64(tr.selfTime(runSpan)) / wall
		out.metrics["trace.overhead_ratio"] = float64(wallT) / float64(wallU)

		if err := simReplays(tr, opts, ts, out); err != nil {
			return nil, err
		}

		rrsStats := m.inner.Stats()
		touchedMax := 0
		for _, n := range m.touchedRows {
			touchedMax = max(touchedMax, n)
		}
		out.metrics["model.rows_touched_per_bank_max"] = float64(touchedMax)
		out.metrics["model.swaps_per_epoch"] = refStats.SwapsPerEpoch
		out.metrics["model.reswaps"] = float64(rrsStats.Reswaps)
		out.metrics["model.mpki_err_pct"] = 100 * (refStats.MPKI - c.paperMPKI) / c.paperMPKI
		out.metrics["model.hot_rows_err_pct"] = 100 * (refStats.HotRowsPerEpoch - c.paperHotRows) / c.paperHotRows

		if c.parPin != "" {
			if err := simParallel(tr, c, opts, out); err != nil {
				return nil, err
			}
		}
		setup, err := simSetup(c, 7)
		if err != nil {
			return nil, err
		}
		out.metrics["sim.setup_ms"] = ms(setup)

		out.attempted = 2
		out.detail["stats"] = refStats
		out.detail["untraced_wall_s"] = wallU.Seconds()
		out.detail["traced_wall_s"] = wallT.Seconds()
		out.detail["timer_ns"] = timer
		out.detail["rrs_stats"] = map[string]int64{"swaps": rrsStats.Swaps, "reswaps": rrsStats.Reswaps,
			"swap_ops": rrsStats.SwapOps, "skipped": rrsStats.SkippedSwaps}
		out.detail["paper"] = map[string]float64{"mpki": c.paperMPKI, "hot_rows": c.paperHotRows}
		return out, writeSpans(tr, rc)
	}
}

func writeSpans(tr *tracer, rc runConfig) error {
	path := filepath.Join(buildDir(), fmt.Sprintf("perfbench-spans-%s-%d.json", rc.workload, rc.seed))
	if err := tr.write(path); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// timeLoop times n iterations of fn in bulk and returns ns per iteration.
func timeLoop(n int, fn func(i int)) float64 {
	if n == 0 {
		return 0
	}
	t0 := nanotime()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(nanotime()-t0) / float64(n)
}

// access is one memory access of the replayed run.
type access struct {
	line     uint64
	at, done int64
	write    bool
	core     uint8
}

// dramAct is one DRAM activation.
type dramAct struct {
	now  int64
	row  int32
	bank uint16
}

// actRecorder collects every DRAM activation through dram's listener
// seam.
type actRecorder struct {
	cfg  config.Config
	acts []dramAct
}

func (a *actRecorder) OnActivate(id dram.BankID, row int, now int64) {
	if len(a.acts) < recordCap {
		a.acts = append(a.acts, dramAct{now: now, row: int32(row), bank: uint16(flatBank(a.cfg, id))})
	}
}

// sliceReader replays recorded trace records.
type sliceReader struct {
	recs      []trace.Record
	pos       int
	exhausted bool
}

func (s *sliceReader) Next() (trace.Record, bool) {
	if s.pos >= len(s.recs) {
		s.exhausted = true
		return trace.Record{}, false
	}
	s.pos++
	return s.recs[s.pos-1], true
}

// replayAccesses re-drives the recorded per-core streams through fresh
// cores, controller and mitigation the way sim's sequential loop does,
// returning the global access sequence with issue and completion times
// plus every DRAM activation. It stops at the first core whose recorded
// stream runs out, so every access returned is one the real run made.
func replayAccesses(opts sim.Options, recs [][]trace.Record) ([]access, []dramAct, error) {
	cfg := opts.Config
	sys, err := dram.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	acts := &actRecorder{cfg: cfg}
	sys.Subscribe(acts)
	ctl := memctrl.New(sys, opts.Mitigation(sys))
	readers := make([]*sliceReader, cfg.Cores)
	cores := make([]*cpu.Core, cfg.Cores)
	for i := range cores {
		readers[i] = &sliceReader{recs: recs[i]}
		cores[i] = cpu.New(i, cfg, readers[i], opts.InstructionsPerCore)
		cores[i].Limit = opts.CycleLimit
	}
	var out []access
	for {
		next, nextT := -1, int64(0)
		for i, c := range cores {
			if t, ok := c.NextIssueTime(); ok && (next < 0 || t < nextT) {
				next, nextT = i, t
			}
		}
		if next < 0 {
			return out, acts.acts, nil
		}
		c := cores[next]
		rec, at := c.Issue()
		done := ctl.Access(rec.Line, rec.Write, at)
		if !rec.Write {
			c.Complete(c.Pos(), done+llcHitBusCycles)
		}
		out = append(out, access{line: rec.Line, at: at, done: done, write: rec.Write, core: uint8(next)})
		if readers[next].exhausted {
			return out, acts.acts, nil
		}
	}
}

// trackerGeometry mirrors core's CAT sizing: the power-of-two set count
// that brings demand ways per set near 14, plus 6 extra ways.
func trackerGeometry(entries int) cat.Spec {
	const demandWays, extraWays = 14, 6
	sets := 1
	for 2*sets*demandWays < entries {
		sets *= 2
	}
	ways := (entries + 2*sets - 1) / (2 * sets)
	return cat.Spec{Sets: sets, Ways: ways + extraWays}
}

// trackerSeeds reproduces the per-bank tracker seeds core.New draws, so
// replayed trackers hash rows exactly like the run's.
func trackerSeeds(p core.Params, banks int) []uint64 {
	g := prince.Seeded(p.Seed)
	out := make([]uint64, banks)
	for i := range out {
		out[i] = g.Next() // tracker
		g.Next()          // RIT
		g.Next()          // swap RNG key 0
		g.Next()          // swap RNG key 1
	}
	return out
}

// simReplays runs the replay micro-benchmarks on the traced run's
// recorded streams.
func simReplays(tr *tracer, opts sim.Options, ts *tracedSim, out *outcome) error {
	cfg := opts.Config
	m := ts.mit
	phase := tr.begin("replay", 0, 0)
	defer tr.end(phase)

	// trace: core 0's generator, as many calls as the run made (capped).
	gen := coreGenerator(opts, 0)
	out.metrics["trace.next_ns"] = timeLoop(int(min(ts.next.calls, recordCap)), func(int) { gen.Next() })

	// The engine prefix: recorded per-core streams through fresh cores,
	// controller and mitigation.
	recs := make([][]trace.Record, len(ts.readers))
	for i, r := range ts.readers {
		recs[i] = r.recs
	}
	accs, acts, err := replayAccesses(opts, recs)
	if err != nil {
		return err
	}

	// memctrl: the same access sequence into a fresh controller.
	sys, err := dram.New(cfg)
	if err != nil {
		return err
	}
	ctl := memctrl.New(sys, opts.Mitigation(sys))
	out.metrics["memctrl.access_ns"] = timeLoop(len(accs), func(i int) {
		a := &accs[i]
		ctl.Access(a.line, a.write, a.at)
	})

	// cpu: each core's issue sequence with the completions it saw.
	var cpuNS float64
	var cpuOps int
	for ci := range recs {
		var mine []access
		for _, a := range accs {
			if int(a.core) == ci {
				mine = append(mine, a)
			}
		}
		c := cpu.New(ci, cfg, &sliceReader{recs: recs[ci]}, opts.InstructionsPerCore)
		c.Limit = opts.CycleLimit
		diverged := false
		ns := timeLoop(len(mine), func(i int) {
			c.NextIssueTime()
			rec, at := c.Issue()
			if at != mine[i].at {
				diverged = true
			}
			if !rec.Write {
				c.Complete(c.Pos(), mine[i].done+llcHitBusCycles)
			}
		})
		if diverged {
			return fmt.Errorf("cpu replay of core %d diverged from the recorded run", ci)
		}
		cpuNS += ns * float64(len(mine))
		cpuOps += len(mine)
	}
	out.metrics["cpu.issue_ns"] = cpuNS / float64(max(cpuOps, 1))

	// dram: every activation of the replayed prefix into a fresh system.
	dsys, err := dram.New(cfg)
	if err != nil {
		return err
	}
	out.metrics["dram.activate_ns"] = timeLoop(len(acts), func(i int) {
		a := &acts[i]
		dsys.Activate(bankID(cfg, int(a.bank)), int(a.row), a.now)
	})

	// tracker, CAT set index, PRINCE: per-bank structures keyed like the
	// run's, fed the recorded mitigation notifications.
	params := m.inner.Params()
	banks := len(m.touched)
	spec := trackerGeometry(params.TrackerEntries)
	seeds := trackerSeeds(params, banks)
	trackers := make([]*tracker.CAT, banks)
	tables := make([]*cat.Table[int64], banks)
	for i := range trackers {
		if trackers[i], err = tracker.NewCAT(spec, params.TrackerEntries, params.SwapThreshold, seeds[i]); err != nil {
			return err
		}
		tables[i] = cat.New[int64](spec, seeds[i])
	}
	out.metrics["tracker.observe_ns"] = timeLoop(len(m.events), func(i int) {
		ev := &m.events[i]
		switch ev.kind {
		case evAct:
			trackers[ev.bank].Observe(uint64(ev.row))
		case evActN:
			trackers[ev.bank].ObserveN(uint64(ev.row), int64(ev.n))
		default:
			for _, t := range trackers {
				t.Reset()
			}
		}
	})
	var rows []mitEvent
	for _, ev := range m.events {
		if ev.kind == evAct {
			rows = append(rows, ev)
		}
	}
	var sink int
	out.metrics["cat.setsof_ns"] = timeLoop(len(rows), func(i int) {
		s0, s1 := tables[rows[i].bank].SetsOf(uint64(rows[i].row))
		sink += s0 ^ s1
	})
	kg := prince.Seeded(seeds[0])
	cipher := prince.New(kg.Next(), kg.Next())
	var hsink uint64
	out.metrics["prince.encrypt_ns"] = timeLoop(len(rows), func(i int) {
		hsink ^= cipher.Encrypt(uint64(rows[i].row))
	})

	// RIT: the run's own tables in their end-of-run state, fed the
	// recorded remap stream (Remap only reads).
	rits := make([]func(uint64) uint64, banks)
	for i := range rits {
		rits[i] = m.inner.RIT(bankID(cfg, i)).Remap
	}
	out.metrics["rit.remap_ns"] = timeLoop(len(m.remaps), func(i int) {
		k := m.remaps[i]
		hsink ^= rits[k>>32](k & 0xffffffff)
	})
	out.detail["replay"] = map[string]any{"accesses": len(accs), "dram_acts": len(acts),
		"mit_events": len(m.events), "remaps": len(m.remaps), "sink": sink ^ int(hsink&1)}
	return nil
}

// simParallel times the bank-sharded engine at one worker and at
// GOMAXPROCS workers; both must agree, and match the pin at the pinned
// seed.
func simParallel(tr *tracer, c simCase, opts sim.Options, out *outcome) error {
	var walls []time.Duration
	var runs []simStats
	for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
		popts := opts
		popts.Workers = w
		runtime.GC()
		sp := tr.begin(fmt.Sprintf("sim.run.parallel.w%d", w), 0, 0)
		res, err := sim.Run(popts)
		walls = append(walls, tr.end(sp))
		if err != nil {
			return err
		}
		runs = append(runs, statsOf(res))
	}
	if err := gateStats(c, c.parPin, runs); err != nil {
		return fmt.Errorf("sharded engine: %w", err)
	}
	out.metrics["sim.par_w1_s"] = walls[0].Seconds()
	out.metrics["sim.par_wN_s"] = walls[1].Seconds()
	out.metrics["sim.par_speedup"] = walls[0].Seconds() / walls[1].Seconds()
	out.detail["par_workers"] = runtime.GOMAXPROCS(0)
	return nil
}
