package grid_test

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/grid"
	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/replica"
	"repro/internal/resource"
	"repro/internal/transport"
)

// The replication soak drives the owner-state replication subsystem
// (DESIGN.md §10) through seeded schedules of correlated owner+run
// double crashes — the one failure mode the pre-replication protocol
// could only survive by client resubmission. With ReplicaK >= 2 every
// job must complete with ZERO resubmissions: a surviving replica
// promotes itself and re-establishes the execution path. A k=0 control
// over the same schedules must show the resubmissions replication
// removed, proving the schedules actually exercise the double-failure
// path.

// testRing adapts the test cluster to replica.Ring, mirroring the
// switchableOverlay's routing rule: the ring owner of every key is the
// first live endpoint in cluster order, and a node's successor list is
// the next live endpoints in cyclic cluster order. When ownerIdx is
// non-nil the ownership rule is scripted instead (set to a node index)
// so tests can move the ring out from under a stale owner.
type testRing struct {
	c        *cluster
	i        int
	ownerIdx *atomic.Int32
}

func (r *testRing) Self() transport.Addr { return r.c.hosts[r.i].Addr() }

func (r *testRing) Successors(k int) []transport.Addr {
	var out []transport.Addr
	n := len(r.c.hosts)
	for j := 1; j < n && len(out) < k; j++ {
		ep := r.c.hosts[(r.i+j)%n]
		if ep.Up() {
			out = append(out, ep.Addr())
		}
	}
	return out
}

func (r *testRing) Owns(key ids.ID) bool {
	if r.ownerIdx != nil {
		return int(r.ownerIdx.Load()) == r.i
	}
	for _, ep := range r.c.hosts {
		if ep.Up() {
			return ep.Addr() == r.Self()
		}
	}
	return false
}

// newReplCluster builds a soak cluster with owner-state replication at
// degree k on every node (k=0 disables the subsystem entirely — the
// control configuration).
func newReplCluster(t *testing.T, seed int64, k int, cfg grid.Config) *cluster {
	return newReplClusterN(t, soakNodes, seed, k, cfg, nil, uniform)
}

func newReplClusterN(t *testing.T, n int, seed int64, k int, cfg grid.Config,
	ownerIdx *atomic.Int32, caps func(i int) (resource.Vector, string)) *cluster {
	t.Helper()
	rings := make([]*testRing, n)
	c := newClusterCfg(t, n, seed, func(i int) grid.Config {
		nodeCfg := cfg
		if k > 0 {
			nodeCfg.ReplicaK = k
			rings[i] = &testRing{i: i, ownerIdx: ownerIdx}
			nodeCfg.ReplicaRing = rings[i]
		}
		return nodeCfg
	}, caps)
	// The ring needs the finished cluster; nothing runs until the first
	// RunFor, so late binding here is race-free.
	for _, r := range rings {
		if r != nil {
			r.c = c
		}
	}
	return c
}

// replPlan is the double-failure schedule: correlated owner+run pair
// crashes with no restarts and no partitions (the test ring's
// ownership rule tracks endpoint liveness, which partitions don't
// change), plus light message-level faults on the heartbeat and
// anti-entropy paths.
func replPlan(pairs int, restarts bool) faultinject.Plan {
	p := faultinject.Plan{
		Nodes:       soakNodes,
		Protect:     []int{soakClient},
		Window:      25 * time.Second,
		PairCrashes: pairs,
		Rules: []faultinject.Rule{
			{Method: grid.MHeartbeat, DropProb: 0.2},
			{Method: replica.MSync, DropProb: 0.15},
			{DelayProb: 0.1, DelayMin: 50 * time.Millisecond, DelayMax: 300 * time.Millisecond},
		},
	}
	if restarts {
		p.Crashes = 2
		p.RestartProb = 0.6
		p.RestartDelayMin = 5 * time.Second
		p.RestartDelayMax = 15 * time.Second
	}
	return p
}

// runReplSoak executes one seeded schedule at replication degree k
// and returns the event trace plus the collector it was checked with.
// A calm period before the faults lets a couple of anti-entropy rounds
// seed every successor, so the schedule probes recovery, not the race
// between the very first push and the very first crash.
func runReplSoak(t *testing.T, seed int64, k int, plan faultinject.Plan) ([]string, *metrics.Collector) {
	t.Helper()
	c := newReplCluster(t, seed, k, soakCfg())
	defer c.e.Shutdown()
	return soak{c: c, harness: soakHarness{c}, plan: &plan, patience: 15 * time.Second,
		spec:     func(i int) grid.JobSpec { return grid.JobSpec{Work: time.Duration(6+i%4) * time.Second} },
		calm:     3 * time.Second,
		deadline: 10 * time.Minute,
		tag:      fmt.Sprintf(" k=%d", k),
	}.run(t, seed)
}

// TestReplicatedSoakNoResubmits is the tentpole acceptance soak: under
// a simultaneous owner+run pair crash, ReplicaK=2 completes every job
// with zero client resubmissions on every seed, while the k=0 control
// over the identical schedules resubmits (in aggregate) — the double
// failure really happened, and replication really absorbed it. A random
// pair hits a live job's owner and run node on about one schedule in
// six, so the seeds are enough for the control to see it.
func TestReplicatedSoakNoResubmits(t *testing.T) {
	controlResubmits := 0
	for seed := int64(1); seed <= 30; seed++ {
		_, col := runReplSoak(t, seed, 2, replPlan(1, false))
		if re := col.Count(grid.EvResubmitted); re != 0 {
			t.Errorf("seed %d: %d resubmissions at ReplicaK=2, want 0", seed, re)
		}
		_, col = runReplSoak(t, seed, 0, replPlan(1, false))
		controlResubmits += col.Count(grid.EvResubmitted)
	}
	if controlResubmits == 0 {
		t.Error("k=0 control never resubmitted: the schedules are not exercising the owner+run double failure")
	}
}

// TestReplicatedSoakWithRestarts hardens the subsystem against the
// full churn mix — pair crashes plus independent crashes with
// probabilistic restarts. Promotion and fencing paths live here: the
// seeds must promote, and the full run must also demote a fenced
// owner (seeds 1-2, the short run, have no demotion). These seeds
// record no restore; handoff_test.go's targeted test covers that path.
// A restarted ring owner may still force a (safe) resubmission, so
// this soak asserts exactly-once termination, not zero resubmits.
func TestReplicatedSoakWithRestarts(t *testing.T) {
	promotions, demotions := 0, 0
	for seed := int64(1); seed <= seeds(8, 2); seed++ {
		_, col := runReplSoak(t, seed, 2, replPlan(2, true))
		promotions += col.Count(grid.EvPromoted)
		demotions += col.Count(grid.EvDemoted)
	}
	if promotions == 0 || (!testing.Short() && demotions == 0) {
		t.Fatalf("%d promotions and %d demotions across the seeds: the soak is toothless", promotions, demotions)
	}
}

// TestReplicatedSoakReplayDeterministic: replication (anti-entropy,
// probes, promotion, fencing) must not cost the seeded soak its replay
// guarantee — same seed, byte-identical event trace.
func TestReplicatedSoakReplayDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		a, _ := runReplSoak(t, seed, 2, replPlan(2, true))
		b, _ := runReplSoak(t, seed, 2, replPlan(2, true))
		sameTrace(t, fmt.Sprintf("seed %d replay", seed), a, b)
	}
}
