package main

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"repro/internal/service"
	"repro/internal/sim"
)

// sweepPair is one iteration of serve-sweep: a cold sweep and its
// identical resubmission.
type sweepPair struct {
	spec              service.SweepSpec
	coldID, hitID     string
	cold, hit         time.Duration
	coldEnv, hitEnv   service.SweepResultsEnvelope
	coldView, hitView service.SweepView
	err               error
}

// sweepsRun is one measured serve-sweep window.
type sweepsRun struct {
	pairs     []sweepPair
	allocMB   float64
	counters  map[string]int64
	setup     time.Duration
	transport *countingTransport
	engine    *engineRecorder
	// childViews are the cold sweeps' child jobs (traced runs only).
	childViews []service.JobView
}

// runSweeps boots one plain node (no fleet) and, for the window, submits
// a cold 32-child sweep, waits for it, then resubmits it identically and
// waits again. The sweep views are fetched after the window.
func runSweeps(ctx context.Context, rc runConfig, tr *tracer) (*sweepsRun, error) {
	sr := &sweepsRun{}
	var err error
	if sr.setup, err = bootSetup(ctx, rc.workDir, 1, setupBoots); err != nil {
		return nil, err
	}
	var run service.RunFunc
	hc := &http.Client{Timeout: 30 * time.Second}
	if tr != nil {
		sr.engine = &engineRecorder{specs: map[string]bool{}}
		run = sr.engine.run
		sr.transport = &countingTransport{tr: tr}
		hc = &http.Client{Timeout: 30 * time.Second, Transport: sr.transport}
	}
	c, err := bootCluster(ctx, rc.workDir, 1, run)
	if err != nil {
		return nil, err
	}
	defer c.close()
	client := newClient(c.urls[0], hc)

	window := time.Duration(rc.seconds * float64(time.Second))
	runtime0 := memStats()
	start := time.Now()
	for i := 0; time.Since(start) < window; i++ {
		p := sweepPair{spec: sweepSpec(rc.seed, i)}
		rctx := ctx
		if tr != nil {
			rctx = context.WithValue(ctx, spanKey{}, tr.begin("client.sweep", 0, 0))
		}
		t0 := time.Now()
		p.coldID, p.coldEnv, p.err = submitSweep(rctx, client, p.spec)
		p.cold = time.Since(t0)
		if tr != nil {
			tr.end(rctx.Value(spanKey{}).(int))
			rctx = context.WithValue(ctx, spanKey{}, tr.begin("client.sweep.resubmit", 0, 0))
		}
		if p.err == nil {
			t1 := time.Now()
			p.hitID, p.hitEnv, p.err = submitSweep(rctx, client, p.spec)
			p.hit = time.Since(t1)
		}
		if tr != nil {
			tr.end(rctx.Value(spanKey{}).(int))
		}
		sr.pairs = append(sr.pairs, p)
	}
	sr.allocMB = allocMB(runtime0)

	views := newClient(c.urls[0], http.DefaultClient)
	for i := range sr.pairs {
		p := &sr.pairs[i]
		if p.err != nil {
			continue
		}
		if p.coldView, err = views.Sweep(ctx, p.coldID); err != nil {
			return nil, err
		}
		if p.hitView, err = views.Sweep(ctx, p.hitID); err != nil {
			return nil, err
		}
		if tr == nil {
			continue
		}
		for _, ch := range p.coldView.Children {
			v, err := views.Job(ctx, ch.ID)
			if err != nil {
				return nil, fmt.Errorf("fetching sweep child %s: %w", ch.ID, err)
			}
			sr.childViews = append(sr.childViews, v)
		}
	}
	if sr.counters, _, err = c.counters(ctx); err != nil {
		return nil, err
	}
	return sr, nil
}

// submitSweep submits ss and waits for its results.
func submitSweep(ctx context.Context, cl *service.Client, ss service.SweepSpec) (string, service.SweepResultsEnvelope, error) {
	v, err := cl.SubmitSweep(ctx, ss)
	if err != nil {
		return "", service.SweepResultsEnvelope{}, err
	}
	env, err := cl.SweepResults(ctx, v.ID)
	if err == nil && env.State != service.StateDone {
		err = fmt.Errorf("sweep %s ended %s: %s", v.ID, env.State, env.Error)
	}
	return v.ID, env, err
}

// gateSweeps checks each sweep: every child result equals a direct
// sim.Run, the resubmission returned the same results and was served
// entirely from cache, the rollup equals its children, and every
// distinct child ran exactly once.
func gateSweeps(sr *sweepsRun) (failed int64, err error) {
	var items []served
	for _, p := range sr.pairs {
		if p.err != nil {
			failed++
			continue
		}
		children, err := p.spec.Expand()
		if err != nil {
			return failed, err
		}
		var ordered []sim.Result
		for _, child := range children {
			res, ok := p.coldEnv.Results[child.Hash()]
			if !ok {
				return failed, fmt.Errorf("sweep %s lacks child %s", p.coldID, child.Hash()[:12])
			}
			hit, ok := p.hitEnv.Results[child.Hash()]
			if !ok {
				return failed, fmt.Errorf("resubmitted sweep %s lacks child %s", p.hitID, child.Hash()[:12])
			}
			ordered = append(ordered, res)
			items = append(items, served{child, res}, served{child, hit})
		}
		if len(p.coldEnv.Results) != len(children) || len(p.hitEnv.Results) != len(children) {
			return failed, fmt.Errorf("sweep %s returned %d/%d results for %d children",
				p.coldID, len(p.coldEnv.Results), len(p.hitEnv.Results), len(children))
		}
		want := rollup(ordered)
		for _, v := range []service.SweepView{p.coldView, p.hitView} {
			if v.Stats == nil || *v.Stats != *want {
				return failed, fmt.Errorf("sweep %s rollup %+v differs from its children %+v", v.ID, v.Stats, want)
			}
		}
		if p.hitView.CacheHits != len(children) {
			return failed, fmt.Errorf("resubmitted sweep %s had %d cache hits for %d children",
				p.hitID, p.hitView.CacheHits, len(children))
		}
	}
	distinct, err := verifyServed(items)
	if err != nil {
		return failed, err
	}
	if runs := sr.counters["rrs_runs_started_total"]; runs != int64(distinct) {
		return failed, fmt.Errorf("rrs_runs_started_total = %d for %d distinct children; each must run exactly once", runs, distinct)
	}
	return failed, nil
}

func sweepTimed(ctx context.Context, rc runConfig) (*outcome, error) {
	sr, err := runSweeps(ctx, rc, nil)
	if err != nil {
		return nil, err
	}
	failed, err := gateSweeps(sr)
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	out.attempted, out.failed = int64(len(sr.pairs)), failed
	var cold, hit, rates []float64
	for _, p := range sr.pairs {
		if p.err == nil {
			cold, hit = append(cold, ms(p.cold)), append(hit, ms(p.hit))
			rates = append(rates, float64(len(p.coldEnv.Results))/p.cold.Seconds())
		}
	}
	tailMS, tailPct := tail(cold)
	out.metrics["throughput_per_s"] = median(rates)
	out.metrics["cold_ms"] = median(cold)
	out.metrics["warm_ms"] = median(hit)
	out.metrics["alloc_mb"] = sr.allocMB / float64(max(len(cold), 1))
	out.metrics["setup_s"] = sr.setup.Seconds()
	out.detail["sweeps"] = len(cold)
	out.detail["sweep_tail_ms"] = tailMS
	out.detail["tail_percentile"] = tailPct
	out.detail["sweep_s"] = median(cold) / 1e3
	out.detail["sweep_hit_ms"] = median(hit)
	out.detail["failed_frac"] = float64(failed) / float64(max(out.attempted, 1))
	return out, nil
}

// sweepSpecsFor regenerates, from the seed alone, every child spec of
// the first n sweeps.
func sweepSpecsFor(seed uint64, n int) (map[string]bool, error) {
	gen := map[string]bool{}
	for i := 0; i < n; i++ {
		children, err := sweepSpec(seed, i).Expand()
		if err != nil {
			return nil, err
		}
		for _, c := range children {
			gen[c.Hash()] = true
		}
	}
	return gen, nil
}

func sweepTraced(ctx context.Context, rc runConfig) (*outcome, error) {
	ref, err := runSweeps(ctx, rc, nil)
	if err != nil {
		return nil, err
	}
	if _, err := gateSweeps(ref); err != nil {
		return nil, err
	}
	tr := newTracer()
	sr, err := runSweeps(ctx, rc, tr)
	if err != nil {
		return nil, err
	}
	failed, err := gateSweeps(sr)
	if err != nil {
		return nil, err
	}
	gen, err := sweepSpecsFor(rc.seed, len(sr.pairs))
	if err != nil {
		return nil, err
	}
	if err := gateGenerated(sr.engine, gen, rc.seed); err != nil {
		return nil, err
	}
	out := newOutcome()
	out.attempted, out.failed = int64(len(sr.pairs)), failed

	var runMS []float64
	for _, r := range sr.engine.runs {
		tr.add("engine.RunSpec", 0, 0, r.start, r.end)
		runMS = append(runMS, ms(r.end.Sub(r.start)))
	}
	// Child phases from the server's job timestamps.
	var queue, server []float64
	for _, v := range sr.childViews {
		if v.Started == "" {
			continue
		}
		sub, st, fin, err := jobTimes(v)
		if err != nil {
			return nil, err
		}
		queue = append(queue, ms(st.Sub(sub)))
		server = append(server, ms(fin.Sub(sub)))
	}
	children, cached := 0, 0
	for _, p := range sr.pairs {
		if p.err == nil {
			children += len(p.coldEnv.Results)
			cached += p.hitView.CacheHits
		}
	}
	sweeps := float64(max(len(sr.pairs)-int(failed), 1))
	ct := sr.counters
	var coldTotal, refTotal time.Duration
	refChildren := 0
	for _, p := range sr.pairs {
		coldTotal += p.cold
	}
	for _, p := range ref.pairs {
		refTotal += p.cold
		refChildren += len(p.coldEnv.Results)
	}
	out.metrics["svc.run_ms"] = median(runMS)
	out.metrics["svc.queue_wait_ms"] = median(queue)
	out.metrics["svc.server_ms"] = median(server)
	out.metrics["svc.alloc_mb_per_job"] = sr.allocMB / float64(max(children, 1))
	out.metrics["svc.failed_frac"] = float64(failed) / float64(max(out.attempted, 1))
	out.metrics["svc.runs_per_cold_job"] = float64(ct["rrs_runs_started_total"]) / float64(max(len(sr.engine.specs), 1))
	out.metrics["svc.cache_hits"] = float64(ct["rrs_cache_hits_total"])
	out.metrics["svc.coalesced"] = float64(ct["rrs_jobs_coalesced_total"])
	out.metrics["http.rtt_us"] = float64(sr.transport.rttNS.Load()) / float64(max(sr.transport.requests.Load(), 1)) / 1e3
	out.metrics["sweep.children_cached"] = float64(cached) / sweeps
	out.metrics["sweep.requests_per_sweep"] = float64(sr.transport.requests.Load()) / (2 * sweeps)
	out.metrics["trace.overhead_ratio"] = (coldTotal.Seconds() / float64(max(children, 1))) /
		(refTotal.Seconds() / float64(max(refChildren, 1)))
	if err := serviceMicros(rc, out); err != nil {
		return nil, err
	}
	out.detail["sweeps"] = len(sr.pairs)
	out.detail["children_run"] = len(runMS)
	return out, writeSpans(tr, rc)
}
