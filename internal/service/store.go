package service

import (
	"container/list"
	"sort"
	"sync"

	"repro/internal/sim"
)

// resultStore is the manager's one index of results, keyed by spec
// hash. An entry is in flight (the one job computing the hash), held
// (the finished result), or both while a replica lands on a running
// hash. Submits, Job.Result, ResultByHash (and so the fleet's lookups
// and sweep rollups) and DoneHashes all read it.
//
// Retention: a held entry stays while any tracked done job holds its
// hash. Entries no job holds — received replicas, results of removed
// jobs — sit in an LRU bounded by Options.CacheEntries.
type resultStore struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*storeEntry
	unheld  *list.List // entries no job holds or computes, front = most recent
}

type storeEntry struct {
	hash string
	job  *Job          // the job computing hash, nil when none is
	res  *sim.Result   // the held result, nil until one arrives
	refs int           // tracked done jobs holding hash
	el   *list.Element // position in unheld, nil when not there
}

// newResultStore keeps up to capacity results that no job holds.
func newResultStore(capacity int) *resultStore {
	return &resultStore{
		cap:     capacity,
		entries: make(map[string]*storeEntry),
		unheld:  list.New(),
	}
}

// entry returns hash's entry, creating an empty one for settle to file.
func (s *resultStore) entry(hash string) *storeEntry {
	e := s.entries[hash]
	if e == nil {
		e = &storeEntry{hash: hash}
		s.entries[hash] = e
	}
	return e
}

// settle files e by the retention rule after any change: an entry a job
// holds or computes stays out of the LRU, a result no job holds moves
// to its front (evicting past capacity), and an empty entry goes.
func (s *resultStore) settle(e *storeEntry) {
	if e.el != nil {
		s.unheld.Remove(e.el)
		e.el = nil
	}
	switch {
	case e.refs > 0 || e.job != nil:
	case e.res == nil:
		delete(s.entries, e.hash)
	default:
		e.el = s.unheld.PushFront(e)
		for s.unheld.Len() > s.cap {
			old := s.unheld.Remove(s.unheld.Back()).(*storeEntry)
			old.el = nil
			delete(s.entries, old.hash)
		}
	}
}

// admit decides a submission of j's hash in one critical section: a
// held result makes j a holder (a cache hit), a job computing the hash
// is returned as prior, otherwise j becomes the one computing it.
func (s *resultStore) admit(j *Job) (hit bool, prior *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entry(j.hash)
	switch {
	case e.res != nil:
		e.refs++
		hit = true
	case e.job != nil:
		prior = e.job
	default:
		e.job = j
	}
	s.settle(e)
	return hit, prior
}

// start registers a journal-restored pending job as computing its hash
// unless another job already is.
func (s *resultStore) start(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.entry(j.hash); e.job == nil {
		e.job = j
		s.settle(e)
	}
}

// put files res under hash for j, a tracked job now done, or for no job
// (j nil: a received replica).
func (s *resultStore) put(hash string, res sim.Result, j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entry(hash)
	e.res = &res
	if j != nil {
		e.refs++
		if e.job == j {
			e.job = nil
		}
	}
	s.settle(e)
}

// drop ends j's claim on its hash without a result.
func (s *resultStore) drop(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.entries[j.hash]; e != nil && e.job == j {
		e.job = nil
		s.settle(e)
	}
}

// release records that a done job holding hash left the job table.
func (s *resultStore) release(hash string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.entries[hash]; e != nil {
		e.refs--
		s.settle(e)
	}
}

// get returns the held result for hash, refreshing its LRU position.
func (s *resultStore) get(hash string) (sim.Result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entries[hash]
	if e == nil || e.res == nil {
		return sim.Result{}, false
	}
	if e.el != nil {
		s.unheld.MoveToFront(e.el)
	}
	return *e.res, true
}

// has reports whether hash is held or being computed.
func (s *resultStore) has(hash string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.entries[hash] != nil
}

// keys returns every held hash, sorted so a cursor walking the set
// (the fleet's anti-entropy repair) sees a stable sequence.
func (s *resultStore) keys() []string {
	s.mu.Lock()
	out := make([]string, 0, len(s.entries))
	for h, e := range s.entries {
		if e.res != nil {
			out = append(out, h)
		}
	}
	s.mu.Unlock()
	sort.Strings(out)
	return out
}
