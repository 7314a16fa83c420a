package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/dram"
	"repro/internal/service"
	"repro/internal/sim"
)

// Pin files: cmd/rrs-bench's pinned set, and the benchmark's own pins
// for specs that set lacks.
const (
	rrsBenchPins = "cmd/rrs-bench/pins.json"
	ownPins      = "perfbench/pins.json"
)

// simCase is one simulation workload. Its spec takes the benchmark seed
// as the trace seed, so the default seed reproduces the pinned spec.
type simCase struct {
	spec service.Spec
	// pinFile/pinName locate the pinned statistics for the default seed;
	// parPin, when set, pins the sharded engine's statistics too.
	pinFile, pinName, parPin string
	// paper holds the Table 3 / Figure 5 values EXPERIMENTS.md records
	// for the workload, for the informational model error.
	paperMPKI, paperHotRows float64
}

// mcfCase is memory-bound with a footprint far beyond the CAT set-index
// memo: tracker observes and PRINCE hashing dominate, swaps are rare.
var mcfCase = simCase{
	spec: service.Spec{Workloads: []string{"mcf"}, Mitigation: service.MitRRS,
		Scale: 16, Epochs: 1},
	pinFile: rrsBenchPins, pinName: "rrs-mcf", parPin: "rrs-mcf+par",
	paperMPKI: 107.81, paperHotRows: 2,
}

// hmmerCase has a small footprint and ~1.7 K swaps per epoch: the RIT
// remap on every access and the swap path dominate.
var hmmerCase = simCase{
	spec: service.Spec{Workloads: []string{"hmmer"}, Mitigation: service.MitRRS,
		Scale: 16, Epochs: 8},
	pinFile: ownPins, pinName: "rrs-hmmer-8ep",
	paperMPKI: 0.84, paperHotRows: 1675,
}

func (c simCase) withSeed(seed uint64) simCase {
	c.spec.Seed = seed
	return c
}

// simStats are the deterministic outputs the pins freeze; the field set
// and JSON names match cmd/rrs-bench's pins file.
type simStats struct {
	IPC             float64 `json:"ipc"`
	MPKI            float64 `json:"mpki"`
	Instructions    int64   `json:"instructions"`
	Cycles          int64   `json:"cycles"`
	Accesses        int64   `json:"accesses"`
	Epochs          int64   `json:"epochs"`
	HotRowsPerEpoch float64 `json:"hot_rows_per_epoch"`
	SwapsPerEpoch   float64 `json:"swaps_per_epoch"`
}

func statsOf(r sim.Result) simStats {
	return simStats{
		IPC: r.IPC, MPKI: r.MPKI, Instructions: r.Instructions, Cycles: r.Cycles,
		Accesses: r.Accesses, Epochs: r.Epochs,
		HotRowsPerEpoch: r.HotRowsPerEpoch, SwapsPerEpoch: r.SwapsPerEpoch,
	}
}

// loadPin reads one pinned statistics entry.
func loadPin(file, name string) (simStats, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return simStats{}, err
	}
	var pf struct {
		Sims map[string]simStats `json:"sims"`
	}
	if err := json.Unmarshal(data, &pf); err != nil {
		return simStats{}, fmt.Errorf("parsing %s: %w", file, err)
	}
	s, ok := pf.Sims[name]
	if !ok {
		return simStats{}, fmt.Errorf("%s has no pin %q", file, name)
	}
	return s, nil
}

// gateStats is the simulation output gate. Every run of one spec must
// agree exactly (the engine is deterministic); at the pinned seed the
// statistics must also equal the pin.
func gateStats(c simCase, pinName string, runs []simStats) error {
	for i, s := range runs[1:] {
		if s != runs[0] {
			return fmt.Errorf("run %d statistics %+v differ from run 0 %+v", i+1, s, runs[0])
		}
	}
	if c.spec.Seed != pinnedSeed || pinName == "" {
		return nil
	}
	want, err := loadPin(c.pinFile, pinName)
	if err != nil {
		return err
	}
	if runs[0] != want {
		return fmt.Errorf("statistics drifted from pin %s:\n  got  %+v\n  want %+v", pinName, runs[0], want)
	}
	return nil
}

// minSimRuns is the fewest timed runs: two, so every timed run also
// checks determinism.
const minSimRuns = 2

// stepAccesses is how many accesses separate sim's progress callbacks;
// the timed run times each such step.
const stepAccesses = 8192

// simTimed is the timed run of a simulation workload: back-to-back
// sim.Runs of the spec for the window, each starting from empty
// simulated state, then the set-up measurement. Latencies are per step
// of 8192 simulated accesses, taken through sim's progress callback:
// steps in the first half of each run (trackers, RIT and set-index memo
// still filling) are cold, the rest warm. Throughput is taken at the
// mean of the two halves' median steps: the halves run at different
// speeds, so a median over all steps would fall between them, and a
// mean over all steps would follow every slow stretch of the host.
func simTimed(base simCase) func(context.Context, runConfig) (*outcome, error) {
	return func(ctx context.Context, rc runConfig) (*outcome, error) {
		c := base.withSeed(rc.seed)
		opts, err := c.spec.Options()
		if err != nil {
			return nil, err
		}
		var stamps []time.Time
		opts.Progress = func(done, total int64) { stamps = append(stamps, time.Now()) }
		var walls, allocs, cold, warm, all []float64
		var runs []simStats
		deadline := time.Now().Add(time.Duration(rc.seconds * float64(time.Second)))
		for len(runs) < minSimRuns || time.Now().Add(lastDur(walls)/2).Before(deadline) {
			runtime.GC()
			stamps = stamps[:0]
			before := memStats()
			t0 := time.Now()
			res, err := sim.Run(opts)
			wall := time.Since(t0)
			if err != nil {
				return nil, err
			}
			allocs = append(allocs, allocMB(before))
			walls = append(walls, ms(wall))
			runs = append(runs, statsOf(res))
			// The first step includes building the hardware and the last
			// is partial; the whole steps between them are timed.
			steps := len(stamps) - 2
			for i := 1; i < len(stamps)-1; i++ {
				d := ms(stamps[i].Sub(stamps[i-1]))
				if i <= steps/2 {
					cold = append(cold, d)
				} else {
					warm = append(warm, d)
				}
				all = append(all, d)
			}
		}
		if err := gateStats(c, c.pinName, runs); err != nil {
			return nil, err
		}
		setup, err := simSetup(c, 25)
		if err != nil {
			return nil, err
		}

		out := newOutcome()
		out.attempted = int64(len(runs))
		tailMS, tailPct := tail(all)
		out.metrics["throughput_per_s"] = stepAccesses / ((median(cold) + median(warm)) / 2 / 1e3)
		out.metrics["cold_ms"] = median(cold)
		out.metrics["warm_ms"] = median(warm)
		out.metrics["alloc_mb"] = median(allocs)
		out.metrics["setup_s"] = setup.Seconds()
		out.detail["runs"] = len(runs)
		out.detail["run_ms"] = walls
		out.detail["steps"] = len(all)
		out.detail["step_tail_ms"] = tailMS
		out.detail["step_tail_percentile"] = tailPct
		out.detail["sim_maccesses_per_s"] = out.metrics["throughput_per_s"] / 1e6
		out.detail["stats"] = runs[0]
		out.detail["pinned"] = c.spec.Seed == pinnedSeed
		return out, nil
	}
}

func lastDur(wallsMS []float64) time.Duration {
	if len(wallsMS) == 0 {
		return 0
	}
	return time.Duration(wallsMS[len(wallsMS)-1] * float64(time.Millisecond))
}

// simSetup times building the simulated hardware — dram.New plus the
// mitigation factory for the workload's configuration — reps times and
// returns the median.
func simSetup(c simCase, reps int) (time.Duration, error) {
	opts, err := c.spec.Options()
	if err != nil {
		return 0, err
	}
	var xs []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		t0 := time.Now()
		sys, err := dram.New(opts.Config)
		if err != nil {
			return 0, err
		}
		if opts.Mitigation != nil {
			opts.Mitigation(sys)
		}
		xs = append(xs, float64(time.Since(t0)))
	}
	return time.Duration(median(xs)), nil
}
