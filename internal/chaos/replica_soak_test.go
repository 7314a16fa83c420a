package chaos

import (
	"bytes"
	"context"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/resilience"
	"repro/internal/service"
)

// fleetGauge reads one node's gauge by name.
func fleetGauge(n *fleetNode, name string) float64 {
	return n.mgr.Metrics().JSON().Gauges[name]
}

// waitSoak polls cond until it holds or ctx expires.
func waitSoak(t *testing.T, ctx context.Context, what string, cond func() bool) {
	t.Helper()
	for !cond() {
		select {
		case <-ctx.Done():
			t.Fatalf("timed out waiting for %s", what)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// TestFleetReplicaDurability is the durable-fleet soak: a sweep of real
// simulations through three members with result replication on, then
// kill -9 of a node that owns completed results. The killed node's
// results must be served from its successor's replica — zero
// re-executions anywhere, bit-identical to the plain-engine reference.
// Finally a replacement node joins with `-join` semantics (roster of
// itself plus one gossip seed) and is routed work without any survivor
// restarting.
func TestFleetReplicaDurability(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	sweep, budget := uint64(6), 150*time.Second
	if raceEnabled {
		sweep, budget = 4, 8*time.Minute
	}
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()

	// Plain-engine references: whatever node (or cache) answers, the
	// bytes must match these.
	ref := make(map[uint64][]byte, sweep)
	for seed := uint64(1); seed <= sweep; seed++ {
		res, err := service.RunSpec(ctx, fleetSpec(seed), nil)
		if err != nil {
			t.Fatalf("reference seed %d: %v", seed, err)
		}
		res.Timeline = nil
		ref[seed] = mustJSON(t, res)
	}

	dir := t.TempDir()
	roster := []fleet.Peer{
		{ID: "n1", URL: "http://n1.rrs-fleet.invalid"},
		{ID: "n2", URL: "http://n2.rrs-fleet.invalid"},
		{ID: "n3", URL: "http://n3.rrs-fleet.invalid"},
	}
	hm := newHostmap()
	// Replication on (the default), with the anti-entropy loop fast
	// enough to observe within the soak.
	fastRepair := func(o *fleet.Options) {
		o.RepairInterval = 500 * time.Millisecond
	}
	nodes := make([]*fleetNode, len(roster))
	for i, p := range roster {
		nodes[i] = bootFleetNode(t, hm, roster, p,
			filepath.Join(dir, p.ID+".journal"), fastRepair)
	}

	client := func(p fleet.Peer) *service.Client {
		c := service.NewClient(p.URL,
			service.WithHTTPClient(&http.Client{Transport: hm}),
			service.WithRetryPolicy(resilience.Policy{
				MaxAttempts: -1,
				BaseDelay:   2 * time.Millisecond,
				MaxDelay:    100 * time.Millisecond,
			}))
		c.PollInterval = 10 * time.Millisecond
		return c
	}

	// Complete the sweep across all three entry nodes.
	for seed := uint64(1); seed <= sweep; seed++ {
		res, err := client(roster[int(seed)%len(roster)]).Run(ctx, fleetSpec(seed))
		if err != nil {
			t.Fatalf("sweep seed %d: %v", seed, err)
		}
		if !bytes.Equal(mustJSON(t, res), ref[seed]) {
			t.Fatalf("seed %d diverged from reference pre-crash", seed)
		}
	}

	// Every completed result must drain out of the replication queues
	// onto its successor before the crash window opens.
	waitSoak(t, ctx, "replication to settle", func() bool {
		var replicated int64
		for _, n := range nodes {
			if fleetGauge(n, "rrs_fleet_replica_lag") != 0 {
				return false
			}
			replicated += fleetCounter(n, "rrs_fleet_replicated_total")
		}
		return replicated >= int64(sweep)
	})

	// The victim: seed 1's ring owner — it computed and holds that
	// result. Its successor (the ring owner once the victim is removed;
	// rendezvous removal only promotes) must already hold the replica.
	spec1 := fleetSpec(1)
	ownerPeer, _ := fleet.Owner(spec1.Hash(), roster)
	victim := -1
	for i, p := range roster {
		if p.ID == ownerPeer.ID {
			victim = i
		}
	}
	var rest []fleet.Peer
	var survivors []*fleetNode
	for i, p := range roster {
		if i != victim {
			rest = append(rest, p)
			survivors = append(survivors, nodes[i])
		}
	}
	holderPeer, _ := fleet.Owner(spec1.Hash(), rest)
	var holder *fleetNode
	for _, n := range survivors {
		if n.self.ID == holderPeer.ID {
			holder = n
		}
	}
	if _, ok := holder.mgr.ResultByHash(spec1.Hash()); !ok {
		t.Fatalf("successor %s holds no replica of seed 1 before the kill", holderPeer.ID)
	}

	// Snapshot engine-invocation counters: after the kill, serving seed
	// 1 again must not move them anywhere.
	runsBefore := make(map[string]int64, len(survivors))
	for _, n := range survivors {
		runsBefore[n.self.ID] = fleetCounter(n, "rrs_runs_started_total")
	}

	nodes[victim].kill(t, hm)
	waitSoak(t, ctx, "survivors to evict the victim", func() bool {
		for _, n := range survivors {
			if fleetCounter(n, "rrs_fleet_peer_flaps_total") == 0 {
				return false
			}
		}
		return true
	})

	// The payoff: resubmitting the dead node's spec is answered from the
	// successor's replica — a cache hit, not a re-simulation.
	entry := client(survivors[0].self)
	v, err := entry.Submit(ctx, spec1)
	if err != nil {
		t.Fatalf("resubmit after kill: %v", err)
	}
	if !v.CacheHit {
		t.Errorf("resubmitted seed 1 was not a cache hit (job %s)", v.ID)
	}
	res1, err := entry.Result(ctx, v.ID)
	if err != nil {
		t.Fatalf("resubmitted result: %v", err)
	}
	if !bytes.Equal(mustJSON(t, res1), ref[1]) {
		t.Errorf("post-kill seed 1 diverged from reference\n fleet: %s\n   ref: %s",
			mustJSON(t, res1), ref[1])
	}
	for _, n := range survivors {
		if got := fleetCounter(n, "rrs_runs_started_total"); got != runsBefore[n.self.ID] {
			t.Errorf("%s re-ran work after the kill: runs %d -> %d",
				n.self.ID, runsBefore[n.self.ID], got)
		}
	}
	var received int64
	for _, n := range survivors {
		received += fleetCounter(n, "rrs_fleet_replicas_received_total")
	}
	if received == 0 {
		t.Error("no survivor ever received a replica")
	}

	// Node replacement, the dynamic-membership way: n4 boots knowing
	// only itself, gossips through one survivor, and is routed work —
	// no survivor restarted, no roster flag redeployed.
	n4self := fleet.Peer{ID: "n4", URL: "http://n4.rrs-fleet.invalid"}
	n4 := bootFleetNode(t, hm, []fleet.Peer{n4self}, n4self,
		filepath.Join(dir, "n4.journal"), fastRepair)
	defer n4.stop(t)
	for _, n := range survivors {
		defer n.stop(t)
	}
	if err := n4.node.Join(ctx, []string{survivors[0].self.URL}); err != nil {
		t.Fatalf("n4 join: %v", err)
	}
	waitSoak(t, ctx, "survivors to admit n4", func() bool {
		for _, n := range survivors {
			found := false
			for _, m := range n.node.Members() {
				if m.Peer.ID == "n4" && !m.Left {
					found = true
				}
			}
			if !found {
				return false
			}
		}
		return true
	})

	// A spec the grown live ring assigns to n4, submitted via a
	// survivor, must be homed and run there, matching a fresh reference.
	live := append(append([]fleet.Peer(nil), rest...), n4self)
	var joinSpec service.Spec
	for seed := uint64(200); seed < 1200; seed++ {
		s := fleetSpec(seed)
		if owner, _ := fleet.Owner(s.Hash(), live); owner.ID == "n4" {
			joinSpec = s
			break
		}
	}
	if joinSpec.Seed == 0 {
		t.Fatal("no seed in [200,1200) owned by n4")
	}
	refJoin, err := service.RunSpec(ctx, joinSpec, nil)
	if err != nil {
		t.Fatalf("reference for join spec: %v", err)
	}
	refJoin.Timeline = nil
	vj, err := entry.Submit(ctx, joinSpec)
	if err != nil {
		t.Fatalf("submit join spec: %v", err)
	}
	if !strings.HasPrefix(vj.ID, "n4.") {
		t.Errorf("join spec homed on %q, want the joined node n4", vj.ID)
	}
	resJoin, err := entry.Result(ctx, vj.ID)
	if err != nil {
		t.Fatalf("join spec result: %v", err)
	}
	if !bytes.Equal(mustJSON(t, resJoin), mustJSON(t, refJoin)) {
		t.Error("join spec result diverged from reference")
	}

	// The anti-entropy loop keeps verifying the K-copy invariant on the
	// churned ring (and re-replicates what the dead victim was holding).
	waitSoak(t, ctx, "repair activity", func() bool {
		var checks int64
		for _, n := range survivors {
			checks += fleetCounter(n, "rrs_fleet_repair_checks_total")
		}
		return checks > 0
	})
	t.Logf("replicated=%d received=%d repair_checks=%d+%d",
		fleetCounter(survivors[0], "rrs_fleet_replicated_total")+
			fleetCounter(survivors[1], "rrs_fleet_replicated_total"),
		received,
		fleetCounter(survivors[0], "rrs_fleet_repair_checks_total"),
		fleetCounter(survivors[1], "rrs_fleet_repair_checks_total"))
}
