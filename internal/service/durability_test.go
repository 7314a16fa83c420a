package service

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// TestOnResultHookFiresOncePerComputation pins the replication seam's
// contract: OnResult fires for a computed result (stripped, post-cache)
// but not for cache hits or InsertCached — the paths that would make a
// replica fan back out.
func TestOnResultHookFiresOncePerComputation(t *testing.T) {
	var mu sync.Mutex
	got := make(map[string]int)
	m := stubManager(t, Options{
		Workers:      1,
		CacheEntries: 8,
		OnResult: func(hash string, res sim.Result) {
			if res.Timeline != nil || res.Mitigation != nil {
				t.Errorf("OnResult saw an unstripped result for %s", hash)
			}
			mu.Lock()
			got[hash]++
			mu.Unlock()
		},
	}, func(_ context.Context, spec Spec, _ func(int64, int64)) (sim.Result, error) {
		return sim.Result{IPC: float64(spec.Seed)}, nil
	})

	spec := uniqueSpec(1)
	j, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)

	// Identical resubmission: a cache hit, no second OnResult.
	j2, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	v := waitDone(t, j2)
	if !v.CacheHit {
		t.Fatalf("resubmission was not a cache hit")
	}

	// A received replica: cached, but no OnResult either.
	m.InsertCached("replica-hash", sim.Result{IPC: 7})

	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || got[spec.Hash()] != 1 {
		t.Fatalf("OnResult calls = %v, want exactly one for %s", got, spec.Hash())
	}
}

// TestInsertCachedStripsAndServes verifies a pushed replica is stripped
// like a local completion and answers ResultByHash.
func TestInsertCachedStripsAndServes(t *testing.T) {
	m := stubManager(t, Options{Workers: 1, CacheEntries: 8},
		func(_ context.Context, _ Spec, _ func(int64, int64)) (sim.Result, error) {
			return sim.Result{}, nil
		})
	m.InsertCached("h1", sim.Result{IPC: 3, Timeline: &obs.Timeline{}})
	res, ok := m.ResultByHash("h1")
	if !ok {
		t.Fatalf("replica not cached")
	}
	if res.Timeline != nil || res.Mitigation != nil {
		t.Fatalf("replica cached unstripped")
	}
	if res.IPC != 3 {
		t.Fatalf("IPC = %v, want 3", res.IPC)
	}
}

// TestDoneHashesAndResultByHash covers the repair loop's data source:
// done jobs and cache-only entries, deduplicated, each resolvable.
func TestDoneHashesAndResultByHash(t *testing.T) {
	m := stubManager(t, Options{Workers: 1, CacheEntries: 8},
		func(_ context.Context, spec Spec, _ func(int64, int64)) (sim.Result, error) {
			return sim.Result{IPC: float64(spec.Seed)}, nil
		})
	s1, s2 := uniqueSpec(1), uniqueSpec(2)
	for _, s := range []Spec{s1, s2} {
		j, err := m.Submit(s)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
	}
	m.InsertCached("replica-only", sim.Result{IPC: 9})

	hashes := m.DoneHashes()
	want := map[string]bool{s1.Hash(): true, s2.Hash(): true, "replica-only": true}
	if len(hashes) != len(want) {
		t.Fatalf("DoneHashes = %v, want the 3 of %v", hashes, want)
	}
	for _, h := range hashes {
		if !want[h] {
			t.Fatalf("unexpected hash %s in %v", h, hashes)
		}
		if _, ok := m.ResultByHash(h); !ok {
			t.Fatalf("ResultByHash(%s) missed", h)
		}
	}
	if _, ok := m.ResultByHash("absent"); ok {
		t.Fatalf("ResultByHash invented a result")
	}
}

// TestResultByHashSurvivesCacheEviction: a done job's result must stay
// reachable for repair after more results than CacheEntries arrive, and
// resubmitting it must not run the engine again.
func TestResultByHashSurvivesCacheEviction(t *testing.T) {
	var runs atomic.Int64
	m := stubManager(t, Options{Workers: 1, CacheEntries: 1},
		func(_ context.Context, spec Spec, _ func(int64, int64)) (sim.Result, error) {
			runs.Add(1)
			return sim.Result{IPC: float64(spec.Seed)}, nil
		})
	s1, s2 := uniqueSpec(1), uniqueSpec(2)
	var last JobView
	for _, s := range []Spec{s1, s2, s1} {
		j, err := m.Submit(s)
		if err != nil {
			t.Fatal(err)
		}
		last = waitDone(t, j)
	}
	if !last.CacheHit {
		t.Fatalf("s1 resubmitted behind s2 was not a cache hit: %+v", last)
	}
	if got := runs.Load(); got != 2 {
		t.Fatalf("engine ran %d times for 2 hashes", got)
	}
	res, ok := m.ResultByHash(s1.Hash())
	if !ok {
		t.Fatalf("evicted done job unreachable by hash")
	}
	if res.IPC != 1 {
		t.Fatalf("IPC = %v, want 1", res.IPC)
	}
}

// TestResultByHashSurvivesRemovalOfDuplicate: a cache-hit job shares
// the computing job's hash; removing one of the duplicates must leave
// the result reachable through the survivor, with more results than
// CacheEntries held, and without running the engine again.
func TestResultByHashSurvivesRemovalOfDuplicate(t *testing.T) {
	var runs atomic.Int64
	m := stubManager(t, Options{Workers: 1, CacheEntries: 1},
		func(_ context.Context, spec Spec, _ func(int64, int64)) (sim.Result, error) {
			runs.Add(1)
			return sim.Result{IPC: float64(spec.Seed)}, nil
		})
	s1 := uniqueSpec(1)
	j1, err := m.Submit(s1)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j1)
	// Resubmission: a second done job with the same hash (cache hit).
	j2, err := m.Submit(s1)
	if err != nil {
		t.Fatal(err)
	}
	if v := waitDone(t, j2); !v.CacheHit {
		t.Fatalf("resubmission was not a cache hit: %+v", v)
	}
	// Fill the store past CacheEntries, then remove the duplicate job.
	j3, err := m.Submit(uniqueSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j3)
	if err := m.Remove(j2.ID()); err != nil {
		t.Fatal(err)
	}
	res, ok := m.ResultByHash(s1.Hash())
	if !ok {
		t.Fatalf("result lost after removing the duplicate job")
	}
	if res.IPC != 1 {
		t.Fatalf("IPC = %v, want 1", res.IPC)
	}
	j4, err := m.Submit(s1)
	if err != nil {
		t.Fatal(err)
	}
	if v := waitDone(t, j4); !v.CacheHit {
		t.Fatalf("resubmission after removal was not a cache hit: %+v", v)
	}
	if got := runs.Load(); got != 2 {
		t.Fatalf("engine ran %d times for 2 hashes", got)
	}
}
