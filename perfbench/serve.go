package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fleet"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/stats"
)

// smallSpec is the job both service workloads submit: a millisecond-
// sized RRS run whose cost is mostly constructing the simulated
// hardware, so HTTP, hashing, queueing, journaling and replication are
// a visible share of each job's latency.
func smallSpec(seed uint64) service.Spec {
	return service.Spec{Workloads: []string{"bzip2"}, Mitigation: service.MitRRS,
		Scale: 16, InstructionsPerCore: 20000, Seed: seed}
}

// pollInterval is the clients' fixed result-polling cadence.
const pollInterval = 2 * time.Millisecond

// hotSetSize is how many distinct specs the repeated submissions of
// serve-jobs cycle through.
const hotSetSize = 4

// jobSpec is client's k-th submission in serve-jobs: every fourth one
// repeats a spec of the hot set (a cache hit or a coalesced submission),
// the rest are fresh specs (cold).
func jobSpec(base uint64, client, k int) (spec service.Spec, hot bool) {
	if k%4 == 3 {
		return smallSpec(deriveSeed(base, "hot", (k/4)%hotSetSize)), true
	}
	return smallSpec(deriveSeed(base, fmt.Sprintf("cold-%d", client), k)), false
}

// sweepMitigations is serve-sweep's mitigation axis.
var sweepMitigations = []string{service.MitNone, service.MitRRS, service.MitPARA, service.MitBlockHammer}

// sweepSeeds is how many fresh seeds each sweep crosses with the
// mitigation axis.
const sweepSeeds = 8

// sweepSpec is serve-sweep's i-th sweep: 4 mitigations x 8 fresh seeds
// over the small spec.
func sweepSpec(base uint64, i int) service.SweepSpec {
	seeds := make([]uint64, sweepSeeds)
	for j := range seeds {
		seeds[j] = deriveSeed(base, "sweep", i*sweepSeeds+j)
	}
	return service.SweepSpec{Base: smallSpec(0),
		Axes: service.SweepAxes{Mitigations: sweepMitigations, Seeds: seeds}}
}

// swapHandler lets listeners (and so URLs) exist before the nodes whose
// roster needs them.
type swapHandler struct{ h atomic.Value }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h, ok := s.h.Load().(http.Handler); ok {
		h.ServeHTTP(w, r)
		return
	}
	http.Error(w, "node not ready", http.StatusServiceUnavailable)
}

// cluster is a booted service: one plain node, or a fleet of nodes, on
// loopback listeners with fsync'd journals.
type cluster struct {
	urls     []string
	nodes    []*fleet.Node
	mgrs     []*service.Manager
	journals []*service.Journal
	srvs     []*httptest.Server
}

// bootCluster starts n nodes — a fleet when n > 1, one plain node
// otherwise — with journals under a fresh directory in workDir, and
// returns once every node's /readyz answers 200. run, when non-nil,
// replaces each manager's executor.
func bootCluster(ctx context.Context, workDir string, n int, run service.RunFunc) (*cluster, error) {
	dir, err := os.MkdirTemp(workDir, "cluster-")
	if err != nil {
		return nil, err
	}
	c := &cluster{}
	swaps := make([]*swapHandler, n)
	roster := make([]fleet.Peer, n)
	for i := range swaps {
		swaps[i] = &swapHandler{}
		srv := httptest.NewServer(swaps[i])
		c.srvs = append(c.srvs, srv)
		c.urls = append(c.urls, srv.URL)
		roster[i] = fleet.Peer{ID: fmt.Sprintf("n%d", i+1), URL: srv.URL}
	}
	for i := range swaps {
		j, rep, err := service.OpenJournal(filepath.Join(dir, fmt.Sprintf("n%d.journal", i+1)))
		if err != nil {
			c.close()
			return nil, err
		}
		c.journals = append(c.journals, j)
		var mgr *service.Manager
		var h http.Handler
		if n == 1 {
			mgr = service.NewManager(service.Options{Journal: j, Run: run})
			h = service.Handler(mgr)
		} else {
			node, err := fleet.New(fleet.Options{
				Self: roster[i], Peers: roster,
				Service: service.Options{Workers: 1, QueueDepth: 256, Journal: j, Run: run},
			})
			if err != nil {
				c.close()
				return nil, err
			}
			c.nodes = append(c.nodes, node)
			mgr, h = node.Manager(), node.Handler()
		}
		c.mgrs = append(c.mgrs, mgr)
		if err := mgr.Restore(rep); err != nil {
			c.close()
			return nil, err
		}
		swaps[i].h.Store(h)
	}
	for _, node := range c.nodes {
		node.Start()
	}
	hc := &http.Client{Timeout: 2 * time.Second}
	for _, u := range c.urls {
		if err := waitReady(ctx, hc, u); err != nil {
			c.close()
			return nil, err
		}
	}
	return c, nil
}

func waitReady(ctx context.Context, hc *http.Client, url string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/readyz", nil)
		if err != nil {
			return err
		}
		resp, err := hc.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s never became ready", url)
		}
		time.Sleep(time.Millisecond)
	}
}

// close stops every node and waits for its goroutines and listeners.
func (c *cluster) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, node := range c.nodes {
		node.Close()
	}
	for _, m := range c.mgrs {
		m.Shutdown(ctx)
	}
	for _, j := range c.journals {
		j.Close()
	}
	for _, s := range c.srvs {
		s.Close()
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// counters sums the named counters over every node's
// /metrics?format=json.
func (c *cluster) counters(ctx context.Context) (map[string]int64, map[string]float64, error) {
	sums := map[string]int64{}
	gauges := map[string]float64{}
	for _, u := range c.urls {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, u+"/metrics?format=json", nil)
		if err != nil {
			return nil, nil, err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return nil, nil, err
		}
		var view service.JSONView
		err = json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		if err != nil {
			return nil, nil, fmt.Errorf("decoding %s metrics: %w", u, err)
		}
		for k, v := range view.Counters {
			sums[k] += v
		}
		for k, v := range view.Gauges {
			gauges[k] = max(gauges[k], v)
		}
	}
	return sums, gauges, nil
}

// setupBoots is how many boots the set-up time is the median of.
const setupBoots = 41

// bootSetup boots and closes a cluster reps times and returns the median
// boot time: journal open and replay, managers, fleet start, until every
// /readyz is 200.
func bootSetup(ctx context.Context, workDir string, n, reps int) (time.Duration, error) {
	var xs []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		t0 := time.Now()
		c, err := bootCluster(ctx, workDir, n, nil)
		if err != nil {
			return 0, err
		}
		xs = append(xs, float64(time.Since(t0)))
		c.close()
	}
	return time.Duration(median(xs)), nil
}

// newClient targets url with the benchmark's fixed polling cadence over
// hc.
func newClient(url string, hc *http.Client) *service.Client {
	cl := service.NewClient(url, service.WithHTTPClient(hc))
	cl.PollInterval = pollInterval
	return cl
}

// served is one result a client received, for checking after timing.
type served struct {
	spec service.Spec
	res  sim.Result
}

// resultJSON is the comparable form of a result: its JSON without the
// live mitigation and the timeline, which the service strips.
func resultJSON(r sim.Result) ([]byte, error) {
	r.Mitigation = nil
	r.Timeline = nil
	return json.Marshal(r)
}

// verifyServed checks that equal specs got equal results and that each
// result is bit-identical to a direct sim.Run of its spec. The direct
// runs use GOMAXPROCS goroutines.
func verifyServed(items []served) (distinct int, err error) {
	byHash := map[string][]byte{}
	var specs []service.Spec
	for _, it := range items {
		b, err := resultJSON(it.res)
		if err != nil {
			return 0, err
		}
		h := it.spec.Hash()
		if prev, ok := byHash[h]; ok {
			if !bytes.Equal(prev, b) {
				return 0, fmt.Errorf("spec %s was served two different results", h[:12])
			}
			continue
		}
		byHash[h] = b
		specs = append(specs, it.spec)
	}
	work := make(chan service.Spec)
	errs := make(chan error, len(specs))
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for spec := range work {
				errs <- checkDirect(spec, byHash[spec.Hash()])
			}
		}()
	}
	for _, s := range specs {
		work <- s
	}
	close(work)
	wg.Wait()
	close(errs)
	for e := range errs {
		err = errors.Join(err, e)
	}
	return len(specs), err
}

// checkDirect compares a served result with a direct sim.Run.
func checkDirect(spec service.Spec, got []byte) error {
	opts, err := spec.Options()
	if err != nil {
		return err
	}
	res, err := sim.Run(opts)
	if err != nil {
		return err
	}
	want, err := resultJSON(res)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("served result for spec %s differs from a direct sim.Run:\n  served %s\n  direct %s",
			spec.Hash()[:12], got, want)
	}
	return nil
}

// rollup recomputes a sweep's aggregate from its children in expansion
// order, the way the service defines it.
func rollup(children []sim.Result) *service.SweepStats {
	if len(children) == 0 {
		return nil
	}
	st := &service.SweepStats{Results: len(children)}
	var ipcs []float64
	var ipcSum, swapSum float64
	for _, r := range children {
		if r.IPC > 0 {
			ipcs = append(ipcs, r.IPC)
		}
		ipcSum += r.IPC
		swapSum += r.SwapsPerEpoch
		st.TotalEpochs += r.Epochs
		st.TotalAccesses += r.Accesses
	}
	st.MeanIPC = ipcSum / float64(len(children))
	st.MeanSwapsPerEpoch = swapSum / float64(len(children))
	if len(ipcs) > 0 {
		st.GeomeanIPC = stats.GeoMean(ipcs)
	}
	return st
}
