package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"

	"repro/internal/service"
	"repro/internal/sim"
)

// The benchmark runs from the repository root; so do its tests.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// shortCase is a fast RRS spec with swaps, for checks that need a real
// run rather than the benchmark's full-size workloads.
var shortCase = simCase{spec: service.Spec{Workloads: []string{"hmmer"},
	Mitigation: service.MitRRS, Scale: 256, Epochs: 2, Seed: 7}}

func TestTracingOnlyObserves(t *testing.T) {
	opts, err := shortCase.spec.Options()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := sim.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := runTraced(opts)
	if err != nil {
		t.Fatal(err)
	}
	if ts.stats != statsOf(ref) {
		t.Fatalf("traced statistics %+v differ from untraced %+v", ts.stats, statsOf(ref))
	}
	if ts.stats.SwapsPerEpoch == 0 || ts.mit.act.calls == 0 || ts.mit.remap.calls == 0 {
		t.Fatalf("short spec exercised nothing: %+v, %d activations, %d remaps",
			ts.stats, ts.mit.act.calls, ts.mit.remap.calls)
	}
	// The replays re-drive the recorded streams and fail if the cores
	// diverge from the recorded run.
	out := newOutcome()
	if err := simReplays(newTracer(), opts, ts, out); err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"memctrl.access_ns", "cpu.issue_ns", "dram.activate_ns",
		"tracker.observe_ns", "cat.setsof_ns", "prince.encrypt_ns", "rit.remap_ns"} {
		if out.metrics[m] <= 0 {
			t.Errorf("%s = %v, want > 0", m, out.metrics[m])
		}
	}
}

func TestSeedChangesEveryGeneratedSeed(t *testing.T) {
	perClient := []int{50, 50}
	a, b := jobSpecsFor(1, perClient), jobSpecsFor(2, perClient)
	// 4 hot, 2 warm-up per client, and per client 50 - 12 fresh.
	if want := hotSetSize + 2*2 + 2*(50-12); len(a) != want || len(b) != want {
		t.Fatalf("%d and %d distinct job specs generated, want %d", len(a), len(b), want)
	}
	for h := range a {
		if b[h] {
			t.Fatalf("spec %s is generated under both seeds", h[:12])
		}
	}
	sa, err := sweepSpecsFor(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := sweepSpecsFor(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(sa) != 3*len(sweepMitigations)*sweepSeeds {
		t.Fatalf("3 sweeps expand to %d distinct children", len(sa))
	}
	for h := range sa {
		if sb[h] {
			t.Fatalf("sweep child %s is generated under both seeds", h[:12])
		}
	}
	if mcfCase.withSeed(1).spec.Seed == mcfCase.withSeed(2).spec.Seed {
		t.Fatal("the simulation seed ignores the benchmark seed")
	}
}

func TestEngineReceivesOnlyGeneratedSpecs(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a fleet")
	}
	rc := runConfig{seed: 3, seconds: 0.5, workDir: t.TempDir()}
	jr, err := runJobs(context.Background(), rc, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	perClient := make([]int, jobClients)
	for _, s := range jr.samples {
		perClient[s.client]++
	}
	if err := gateGenerated(jr.engine, jobSpecsFor(rc.seed, perClient), rc.seed); err != nil {
		t.Fatal(err)
	}
	if err := gateGenerated(jr.engine, jobSpecsFor(rc.seed+1, perClient), rc.seed+1); err == nil {
		t.Fatal("specs of seed 3 passed as generated from seed 4")
	}
	if _, err := gateJobs(jr); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptedResultFailsGate(t *testing.T) {
	// Simulation: a statistic one ulp off the pin.
	c := mcfCase.withSeed(pinnedSeed)
	pin, err := loadPin(c.pinFile, c.pinName)
	if err != nil {
		t.Fatal(err)
	}
	if err := gateStats(c, c.pinName, []simStats{pin, pin}); err != nil {
		t.Fatalf("the pin itself fails the gate: %v", err)
	}
	bad := pin
	bad.IPC = math.Nextafter(bad.IPC, 1)
	if gateStats(c, c.pinName, []simStats{bad, bad}) == nil {
		t.Fatal("a corrupted IPC passed the pin gate")
	}
	if gateStats(c.withSeed(1), c.pinName, []simStats{pin, bad}) == nil {
		t.Fatal("two different runs of one spec passed the determinism gate")
	}

	// Service: a served result one ulp off a direct run.
	opts, err := shortCase.spec.Options()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := verifyServed([]served{{shortCase.spec, res}}); err != nil {
		t.Fatalf("a correct result fails the gate: %v", err)
	}
	res.MPKI = math.Nextafter(res.MPKI, 0)
	if _, err := verifyServed([]served{{shortCase.spec, res}}); err == nil {
		t.Fatal("a corrupted served result passed the gate")
	}
}

func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: declared %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	for _, tc := range []struct {
		declared []struct{ Name, Unit string }
		program  []metricDef
	}{{doc.EndToEnd, endToEnd}, {doc.PerLayer, perLayer}} {
		if len(tc.declared) != len(tc.program) {
			t.Fatalf("declared %d metrics, the program has %d", len(tc.declared), len(tc.program))
		}
		for i, m := range tc.declared {
			if m.Name != tc.program[i].name || m.Unit != tc.program[i].unit {
				t.Errorf("metric %d: declared %s (%s), program %s (%s)",
					i, m.Name, m.Unit, tc.program[i].name, tc.program[i].unit)
			}
		}
	}
}
