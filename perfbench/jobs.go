package main

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
	"repro/internal/sim"
)

// jobClients is serve-jobs' closed-loop client count, and fleetNodes its
// node count (one worker each): together at most nproc on the reference
// host.
const (
	jobClients = 2
	fleetNodes = 2
)

// spanKey carries the client-side span id a request belongs to.
type spanKey struct{}

// countingTransport counts the benchmark clients' HTTP requests and
// their round-trip times, and records each as a span under the request
// context's span.
type countingTransport struct {
	tr       *tracer
	requests atomic.Int64
	rttNS    atomic.Int64
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := http.DefaultTransport.RoundTrip(req)
	end := time.Now()
	c.requests.Add(1)
	c.rttNS.Add(int64(end.Sub(start)))
	if parent, ok := req.Context().Value(spanKey{}).(int); ok && c.tr != nil {
		c.tr.add("http."+req.Method, parent, 0, start, end)
	}
	return resp, err
}

// engineRecorder wraps service.RunSpec as the managers' executor,
// timing each run and recording which specs reached the engine.
type engineRecorder struct {
	mu    sync.Mutex
	runs  []engineRun
	specs map[string]bool
}

type engineRun struct {
	hash       string
	start, end time.Time
}

func (e *engineRecorder) run(ctx context.Context, spec service.Spec, progress func(done, total int64)) (sim.Result, error) {
	start := time.Now()
	res, err := service.RunSpec(ctx, spec, progress)
	end := time.Now()
	h := spec.Hash()
	e.mu.Lock()
	e.runs = append(e.runs, engineRun{hash: h, start: start, end: end})
	e.specs[h] = true
	e.mu.Unlock()
	return res, err
}

// jobSample is one submission of serve-jobs.
type jobSample struct {
	client int
	spec   service.Spec
	hot    bool
	id     string
	start  time.Time
	lat    time.Duration
	res    sim.Result
	err    error
	span   int
}

// jobsRun is one measured serve-jobs window and what it observed.
type jobsRun struct {
	samples  []jobSample
	warm     []served
	start    time.Time
	elapsed  time.Duration
	allocMB  float64
	counters map[string]int64
	lagMax   float64
	setup    time.Duration
	// traced-only observations
	transport *countingTransport
	engine    *engineRecorder
	views     map[string]service.JobView
}

// runJobs boots the fleet, warms it, drives jobClients closed-loop
// clients for the window and scrapes the counters. Traced runs also
// count requests, time engine runs, record spans and fetch every job's
// server-side timestamps after the window.
func runJobs(ctx context.Context, rc runConfig, tr *tracer) (*jobsRun, error) {
	jr := &jobsRun{}
	var err error
	if jr.setup, err = bootSetup(ctx, rc.workDir, fleetNodes, setupBoots); err != nil {
		return nil, err
	}
	var run service.RunFunc
	hc := &http.Client{Timeout: 30 * time.Second}
	if tr != nil {
		jr.engine = &engineRecorder{specs: map[string]bool{}}
		run = jr.engine.run
		jr.transport = &countingTransport{tr: tr}
		hc = &http.Client{Timeout: 30 * time.Second, Transport: jr.transport}
	}
	c, err := bootCluster(ctx, rc.workDir, fleetNodes, run)
	if err != nil {
		return nil, err
	}
	defer c.close()

	// Warm-up, untimed: the hot set is computed once, and each client
	// completes a few fresh jobs so connections and lazy state exist.
	for h := 0; h < hotSetSize; h++ {
		spec := smallSpec(deriveSeed(rc.seed, "hot", h))
		res, err := newClient(c.urls[h%len(c.urls)], http.DefaultClient).Run(ctx, spec)
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		jr.warm = append(jr.warm, served{spec, res})
	}
	for cl := 0; cl < jobClients; cl++ {
		for k := 0; k < 2; k++ {
			spec := smallSpec(deriveSeed(rc.seed, fmt.Sprintf("warm-%d", cl), k))
			res, err := newClient(c.urls[cl%len(c.urls)], http.DefaultClient).Run(ctx, spec)
			if err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
			jr.warm = append(jr.warm, served{spec, res})
		}
	}
	var reqBase int64
	if jr.transport != nil {
		reqBase = jr.transport.requests.Load()
	}

	stopLag := make(chan struct{})
	lagDone := make(chan struct{})
	go func() {
		defer close(lagDone)
		if tr == nil {
			return
		}
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stopLag:
				return
			case <-t.C:
				if _, g, err := c.counters(ctx); err == nil {
					jr.lagMax = max(jr.lagMax, g["rrs_fleet_replica_lag"])
				}
			}
		}
	}()

	window := time.Duration(rc.seconds * float64(time.Second))
	runtime0 := memStats()
	start := time.Now()
	jr.start = start
	perClient := make([][]jobSample, jobClients)
	var wg sync.WaitGroup
	for cl := 0; cl < jobClients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			client := newClient(c.urls[cl%len(c.urls)], hc)
			for k := 0; time.Since(start) < window; k++ {
				spec, hot := jobSpec(rc.seed, cl, k)
				s := jobSample{client: cl, spec: spec, hot: hot, start: time.Now()}
				rctx := ctx
				if tr != nil {
					s.span = tr.begin("client.job", 0, 0)
					rctx = context.WithValue(ctx, spanKey{}, s.span)
				}
				v, err := client.Submit(rctx, spec)
				if err == nil {
					s.id = v.ID
					s.res, err = client.Result(rctx, v.ID)
				}
				s.lat, s.err = time.Since(s.start), err
				if tr != nil {
					tr.end(s.span)
				}
				perClient[cl] = append(perClient[cl], s)
			}
		}(cl)
	}
	wg.Wait()
	jr.elapsed = time.Since(start)
	jr.allocMB = allocMB(runtime0)
	close(stopLag)
	<-lagDone
	for _, ss := range perClient {
		jr.samples = append(jr.samples, ss...)
	}
	if jr.transport != nil {
		jr.transport.requests.Add(-reqBase)
	}

	if jr.counters, _, err = c.counters(ctx); err != nil {
		return nil, err
	}
	if tr != nil {
		// Server-side timestamps, fetched after the window through an
		// uncounted client.
		jr.views = map[string]service.JobView{}
		for _, s := range jr.samples {
			if s.err != nil {
				continue
			}
			v, err := newClient(c.urls[s.client%len(c.urls)], http.DefaultClient).Job(ctx, s.id)
			if err != nil {
				return nil, fmt.Errorf("fetching job %s: %w", s.id, err)
			}
			jr.views[s.id] = v
		}
	}
	return jr, nil
}

// gateJobs checks every served result against a direct sim.Run and that
// each distinct spec was simulated exactly once fleet-wide.
func gateJobs(jr *jobsRun) (failed int64, err error) {
	items := append([]served(nil), jr.warm...)
	for _, s := range jr.samples {
		if s.err != nil {
			failed++
			continue
		}
		items = append(items, served{s.spec, s.res})
	}
	distinct, err := verifyServed(items)
	if err != nil {
		return failed, err
	}
	if runs := jr.counters["rrs_runs_started_total"]; runs != int64(distinct) {
		return failed, fmt.Errorf("rrs_runs_started_total = %d for %d distinct specs; each must run exactly once", runs, distinct)
	}
	return failed, nil
}

func jobLatencies(samples []jobSample, hot bool) []float64 {
	var xs []float64
	for _, s := range samples {
		if s.err == nil && s.hot == hot {
			xs = append(xs, ms(s.lat))
		}
	}
	return xs
}

// medianRate is the median, over the whole seconds of the window, of
// jobs completed per second.
func medianRate(jr *jobsRun) float64 {
	buckets := make([]float64, int(jr.elapsed/time.Second))
	for _, s := range jr.samples {
		if b := int(s.start.Add(s.lat).Sub(jr.start) / time.Second); s.err == nil && b < len(buckets) {
			buckets[b]++
		}
	}
	return median(buckets)
}

func jobsTimed(ctx context.Context, rc runConfig) (*outcome, error) {
	jr, err := runJobs(ctx, rc, nil)
	if err != nil {
		return nil, err
	}
	failed, err := gateJobs(jr)
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	out.attempted, out.failed = int64(len(jr.samples)), failed
	done := int64(len(jr.samples)) - failed
	cold, hot := jobLatencies(jr.samples, false), jobLatencies(jr.samples, true)
	tailMS, tailPct := tail(cold)
	out.metrics["throughput_per_s"] = medianRate(jr)
	out.metrics["cold_ms"] = median(cold)
	out.metrics["warm_ms"] = median(hot)
	out.metrics["alloc_mb"] = jr.allocMB / float64(max(done, 1))
	out.metrics["setup_s"] = jr.setup.Seconds()
	out.detail["cold_jobs"] = len(cold)
	out.detail["hot_jobs"] = len(hot)
	out.detail["tail_percentile"] = tailPct
	out.detail["jobs_per_s"] = float64(done) / jr.elapsed.Seconds()
	out.detail["job_p50_ms"] = out.metrics["cold_ms"]
	out.detail["job_tail_ms"] = tailMS
	out.detail["hit_p50_ms"] = out.metrics["warm_ms"]
	out.detail["failed_frac"] = float64(failed) / float64(max(out.attempted, 1))
	return out, nil
}

func jobsTraced(ctx context.Context, rc runConfig) (*outcome, error) {
	// The untraced pass gives the overhead baseline.
	ref, err := runJobs(ctx, rc, nil)
	if err != nil {
		return nil, err
	}
	if _, err := gateJobs(ref); err != nil {
		return nil, err
	}
	tr := newTracer()
	jr, err := runJobs(ctx, rc, tr)
	if err != nil {
		return nil, err
	}
	failed, err := gateJobs(jr)
	if err != nil {
		return nil, err
	}
	perClient := make([]int, jobClients)
	for _, s := range jr.samples {
		perClient[s.client]++
	}
	if err := gateGenerated(jr.engine, jobSpecsFor(rc.seed, perClient), rc.seed); err != nil {
		return nil, err
	}
	out := newOutcome()
	out.attempted, out.failed = int64(len(jr.samples)), failed
	done := float64(int64(len(jr.samples)) - failed)

	// Server phases as spans caused by the client span; engine runs
	// linked to the first cold job of their spec.
	var queue, server, overhead []float64
	jobSpan := map[string]int{}
	for _, s := range jr.samples {
		v, ok := jr.views[s.id]
		if !ok || v.Started == "" || s.hot {
			continue
		}
		sub, st, fin, err := jobTimes(v)
		if err != nil {
			return nil, err
		}
		tr.add("svc.queue", 0, s.span, sub, st)
		tr.add("svc.run", 0, s.span, st, fin)
		queue = append(queue, ms(st.Sub(sub)))
		server = append(server, ms(fin.Sub(sub)))
		overhead = append(overhead, ms(s.lat-fin.Sub(sub)))
		if _, seen := jobSpan[s.spec.Hash()]; !seen {
			jobSpan[s.spec.Hash()] = s.span
		}
	}
	var runMS []float64
	for _, r := range jr.engine.runs {
		tr.add("engine.RunSpec", 0, jobSpan[r.hash], r.start, r.end)
		runMS = append(runMS, ms(r.end.Sub(r.start)))
	}
	ct := jr.counters
	distinct := float64(len(jr.engine.specs))
	out.metrics["svc.run_ms"] = median(runMS)
	out.metrics["svc.queue_wait_ms"] = median(queue)
	out.metrics["svc.server_ms"] = median(server)
	out.metrics["svc.client_overhead_ms"] = median(overhead)
	out.metrics["svc.job_tail_ms"], _ = tail(jobLatencies(jr.samples, false))
	out.metrics["svc.alloc_mb_per_job"] = jr.allocMB / max(done, 1)
	out.metrics["svc.failed_frac"] = float64(failed) / float64(max(out.attempted, 1))
	out.metrics["svc.runs_per_cold_job"] = float64(ct["rrs_runs_started_total"]) / max(distinct, 1)
	out.metrics["svc.cache_hits"] = float64(ct["rrs_cache_hits_total"])
	out.metrics["svc.coalesced"] = float64(ct["rrs_jobs_coalesced_total"])
	out.metrics["http.requests_per_job"] = float64(jr.transport.requests.Load()) / max(done, 1)
	out.metrics["http.rtt_us"] = float64(jr.transport.rttNS.Load()) / float64(max(jr.transport.requests.Load(), 1)) / 1e3
	out.metrics["fleet.forwards_per_job"] = float64(ct["rrs_fleet_forwards_total"]) / max(done, 1)
	out.metrics["fleet.proxied_per_job"] = float64(ct["rrs_fleet_proxied_total"]) / max(done, 1)
	out.metrics["fleet.steals"] = float64(ct["rrs_fleet_steals_total"])
	out.metrics["fleet.replicated"] = float64(ct["rrs_fleet_replicated_total"])
	out.metrics["fleet.replica_lag_max"] = jr.lagMax
	out.metrics["trace.overhead_ratio"] = refRate(ref) / (done / jr.elapsed.Seconds())
	if err := serviceMicros(rc, out); err != nil {
		return nil, err
	}
	out.detail["cold_jobs"] = len(queue)
	out.detail["engine_runs"] = len(runMS)
	return out, writeSpans(tr, rc)
}

// jobTimes parses a job's submitted, started and finished timestamps.
func jobTimes(v service.JobView) (sub, st, fin time.Time, err error) {
	if sub, err = time.Parse(time.RFC3339Nano, v.Submitted); err != nil {
		return
	}
	if st, err = time.Parse(time.RFC3339Nano, v.Started); err != nil {
		return
	}
	fin, err = time.Parse(time.RFC3339Nano, v.Finished)
	return
}

// refRate is an untraced pass's completed jobs per second.
func refRate(ref *jobsRun) float64 {
	done := 0
	for _, s := range ref.samples {
		if s.err == nil {
			done++
		}
	}
	return float64(done) / ref.elapsed.Seconds()
}

// jobSpecsFor regenerates, from the seed alone, every spec serve-jobs
// submits when client i makes perClient[i] timed submissions.
func jobSpecsFor(seed uint64, perClient []int) map[string]bool {
	gen := map[string]bool{}
	for h := 0; h < hotSetSize; h++ {
		gen[smallSpec(deriveSeed(seed, "hot", h)).Hash()] = true
	}
	for cl, n := range perClient {
		for k := 0; k < 2; k++ {
			gen[smallSpec(deriveSeed(seed, fmt.Sprintf("warm-%d", cl), k)).Hash()] = true
		}
		for k := 0; k < n; k++ {
			spec, _ := jobSpec(seed, cl, k)
			gen[spec.Hash()] = true
		}
	}
	return gen
}

// gateGenerated checks that every spec that reached the engine is one
// the benchmark generated from its seed.
func gateGenerated(e *engineRecorder, gen map[string]bool, seed uint64) error {
	var extra []string
	for h := range e.specs {
		if !gen[h] {
			extra = append(extra, h[:12])
		}
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		return fmt.Errorf("the engine ran %d specs not generated from seed %d: %v", len(extra), seed, extra)
	}
	return nil
}
