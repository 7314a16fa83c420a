package service

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/sim"
)

// TestResultCacheLRU pins the LRU over results no job holds: a get
// promotes, a put past capacity evicts the least recently used, and a
// result a done job holds never counts against the bound.
func TestResultCacheLRU(t *testing.T) {
	s := newResultStore(2)
	put := func(key string, ipc float64) { s.put(key, sim.Result{IPC: ipc}, nil) }

	put("a", 1)
	put("b", 2)
	if _, ok := s.get("a"); !ok { // promotes a over b
		t.Fatal("a evicted prematurely")
	}
	put("c", 3) // evicts b, the least recently used
	if _, ok := s.get("b"); ok {
		t.Error("b should have been evicted")
	}
	for key, want := range map[string]float64{"a": 1, "c": 3} {
		res, ok := s.get(key)
		if !ok || res.IPC != want {
			t.Errorf("get(%q) = (%v, %v), want IPC %v", key, res.IPC, ok, want)
		}
	}
	if n := len(s.keys()); n != 2 {
		t.Errorf("held = %d, want 2", n)
	}

	// Overwriting an existing key must not grow the store.
	put("a", 10)
	if res, _ := s.get("a"); res.IPC != 10 {
		t.Error("put did not update existing entry")
	}
	if n := len(s.keys()); n != 2 {
		t.Errorf("held after overwrite = %d, want 2", n)
	}

	// A done job's result is outside the bound until the job leaves.
	s.put("job", sim.Result{IPC: 4}, &Job{hash: "job"})
	put("d", 5)
	put("e", 6)
	if _, ok := s.get("job"); !ok {
		t.Fatal("result held by a done job was evicted")
	}
	s.release("job") // now the most recent unheld entry; evicts d
	if got := s.keys(); fmt.Sprint(got) != "[e job]" {
		t.Errorf("held after release = %v, want [e job]", got)
	}
}

// TestResultCacheDisabled: a negative CacheEntries keeps no result that
// no job holds, but still holds a done job's.
func TestResultCacheDisabled(t *testing.T) {
	m := stubManager(t, Options{Workers: 1, CacheEntries: -1}, instantRun)
	m.InsertCached("replica", sim.Result{IPC: 1})
	if _, ok := m.ResultByHash("replica"); ok {
		t.Error("disabled store kept a replica")
	}
	j, err := m.Submit(uniqueSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if _, ok := j.Result(); !ok {
		t.Fatal("done job lost its result")
	}
	if err := m.Remove(j.ID()); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.ResultByHash(uniqueSpec(1).Hash()); ok {
		t.Error("disabled store kept a removed job's result")
	}
}

// TestResultCacheEvictionOrderUnderChurn: received replicas past
// CacheEntries are evicted oldest first, and done jobs' results survive
// the churn.
func TestResultCacheEvictionOrderUnderChurn(t *testing.T) {
	m := stubManager(t, Options{Workers: 1, CacheEntries: 8}, instantRun)
	j, err := m.Submit(uniqueSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	for i := 0; i < 100; i++ {
		m.InsertCached(fmt.Sprintf("k%d", i), sim.Result{IPC: float64(i)})
	}
	if n := len(m.DoneHashes()); n != 9 {
		t.Fatalf("held = %d, want 8 replicas + 1 done job", n)
	}
	for i := 92; i < 100; i++ {
		if _, ok := m.ResultByHash(fmt.Sprintf("k%d", i)); !ok {
			t.Errorf("recent key k%d missing", i)
		}
	}
	if _, ok := m.ResultByHash("k50"); ok {
		t.Error("old key survived eviction")
	}
	if _, ok := m.ResultByHash(uniqueSpec(1).Hash()); !ok {
		t.Error("done job's result evicted by replica churn")
	}
}

// TestConcurrentDuplicateSubmitsRunOnce: every spec submitted by two
// goroutines at the same moment runs exactly once — the store decides
// hit, coalesce or new job in one critical section.
func TestConcurrentDuplicateSubmitsRunOnce(t *testing.T) {
	const n = 2000
	var runs atomic.Int64
	m := stubManager(t, Options{Workers: 4, QueueDepth: 2 * n},
		func(_ context.Context, spec Spec, _ func(int64, int64)) (sim.Result, error) {
			runs.Add(1)
			return sim.Result{IPC: float64(spec.Seed)}, nil
		})
	start := make(chan struct{})
	jobs := make(chan *Job, 2*n)
	var wg sync.WaitGroup
	for i := 0; i < 2*n; i++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			<-start
			j, err := m.Submit(uniqueSpec(seed))
			if err != nil {
				t.Errorf("submit: %v", err)
				return
			}
			jobs <- j
		}(uint64(i/2 + 1))
	}
	close(start)
	wg.Wait()
	close(jobs)
	for j := range jobs {
		if v := waitDone(t, j); v.State != StateDone {
			t.Fatalf("job %s %s: %s", v.ID, v.State, v.Error)
		}
	}
	if got := runs.Load(); got != n {
		t.Fatalf("engine ran %d times for %d distinct specs", got, n)
	}
}

// TestNoInflightEntryOnceJobsTerminal: with an instant executor a job
// can finish the moment it is queued, before its submitter is done with
// it; once every job is terminal the store must hold no in-flight
// entry, so resubmissions are cache hits rather than coalescing onto a
// finished job. Concurrent submitters and job-table readers contend for
// the manager lock to widen that window.
func TestNoInflightEntryOnceJobsTerminal(t *testing.T) {
	const n, submitters = 400, 4
	m := stubManager(t, Options{Workers: 4, QueueDepth: n}, instantRun)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					m.List()
				}
			}
		}()
	}
	submitAll := func(wantHit bool) {
		var wg sync.WaitGroup
		for g := 0; g < submitters; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for seed := uint64(g + 1); seed <= n; seed += submitters {
					j, err := m.Submit(uniqueSpec(seed))
					if err != nil {
						t.Error(err)
						return
					}
					if v := waitDone(t, j); wantHit && !v.CacheHit {
						t.Errorf("resubmission of seed %d was not a cache hit: %+v", seed, v)
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
	submitAll(false)
	close(stop)
	readers.Wait()
	submitAll(true)

	m.store.mu.Lock()
	defer m.store.mu.Unlock()
	for h, e := range m.store.entries {
		if e.job != nil {
			t.Errorf("hash %s still in flight on terminal job %s", h[:12], e.job.ID())
		}
	}
}
