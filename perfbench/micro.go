package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/service"
	"repro/internal/sim"
)

// Service micro-benchmarks, driven by the workload's own generated
// specs. Manager.Submit is measured cold, as a cache hit, and with an
// fsync'd journal. The cold and journaled cases run a stub executor
// that is held until the timed submissions end, so only the submission
// path is timed. Holding it also keeps every job from finishing before
// Submit has registered it for coalescing: a job that finishes inside
// that window stays registered, and a later identical Submit coalesces
// onto it instead of hitting the cache.

const (
	microSpecs        = 2000
	microJournalSpecs = 200
	microExpands      = 200
)

// heldStub answers every spec with a fixed result once released.
type heldStub chan struct{}

func (h heldStub) run(ctx context.Context, _ service.Spec, _ func(done, total int64)) (sim.Result, error) {
	select {
	case <-h:
		return sim.Result{IPC: 1, Accesses: 1}, nil
	case <-ctx.Done():
		return sim.Result{}, ctx.Err()
	}
}

func microSpecList(seed uint64, stream string, n int) []service.Spec {
	out := make([]service.Spec, n)
	for i := range out {
		out[i] = smallSpec(deriveSeed(seed, stream, i))
	}
	return out
}

// timeSubmits submits every spec to m, returning µs per Submit and the
// accepted jobs.
func timeSubmits(m *service.Manager, specs []service.Spec) (float64, []*service.Job, error) {
	jobs := make([]*service.Job, len(specs))
	var firstErr error
	ns := timeLoop(len(specs), func(i int) {
		j, err := m.Submit(specs[i])
		if err != nil && firstErr == nil {
			firstErr = err
		}
		jobs[i] = j
	})
	return ns / 1e3, jobs, firstErr
}

func serviceMicros(rc runConfig, out *outcome) error {
	specs := microSpecList(rc.seed, "micro", microSpecs)
	var sink byte
	out.metrics["svc.hash_us"] = timeLoop(len(specs), func(i int) { sink ^= specs[i].Hash()[0] }) / 1e3

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	held := make(heldStub)
	m := service.NewManager(service.Options{Workers: 1, QueueDepth: microSpecs + 1,
		CacheEntries: microSpecs + 1, Run: held.run})
	cold, jobs, err := timeSubmits(m, specs)
	close(held)
	if err != nil {
		m.Shutdown(ctx)
		return fmt.Errorf("micro submit: %w", err)
	}
	for _, j := range jobs {
		<-j.Done()
	}
	hit, jobs, err := timeSubmits(m, specs)
	if err == nil {
		for _, j := range jobs {
			if !j.Snapshot().CacheHit {
				err = fmt.Errorf("micro resubmission of %s was not a cache hit", j.ID())
				break
			}
		}
	}
	m.Shutdown(ctx)
	if err != nil {
		return err
	}

	jn, rep, err := service.OpenJournal(filepath.Join(rc.workDir, "micro.journal"))
	if err != nil {
		return err
	}
	heldJ := make(heldStub)
	mj := service.NewManager(service.Options{Workers: 1, QueueDepth: microJournalSpecs + 1,
		Journal: jn, Run: heldJ.run})
	err = mj.Restore(rep)
	var journaled float64
	if err == nil {
		journaled, _, err = timeSubmits(mj, microSpecList(rc.seed, "micro-journal", microJournalSpecs))
	}
	close(heldJ)
	mj.Shutdown(ctx)
	jn.Close()
	if err != nil {
		return fmt.Errorf("micro journaled submit: %w", err)
	}

	ss := sweepSpec(rc.seed, 0)
	var expandErr error
	out.metrics["sweep.expand_us"] = timeLoop(microExpands, func(int) {
		if _, err := ss.Expand(); err != nil {
			expandErr = err
		}
	}) / 1e3
	if expandErr != nil {
		return expandErr
	}
	out.metrics["svc.submit_us"] = cold
	out.metrics["svc.submit_hit_us"] = hit
	out.metrics["svc.submit_journal_us"] = journaled
	out.detail["micro_sink"] = sink
	return nil
}
