package grid_test

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/grid"
	"repro/internal/ids"
	"repro/internal/replica"
	"repro/internal/resource"
	"repro/internal/simnet"
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

const (
	replNodes  = 7 // node 6 is the client and is protected
	replClient = replNodes - 1
	replJobs   = 8
)

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
	n := len(r.c.eps)
	for j := 1; j < n && len(out) < k; j++ {
		ep := r.c.eps[(r.i+j)%n]
		if ep.Up() {
			out = append(out, transport.Addr(ep.Addr()))
		}
	}
	return out
}

func (r *testRing) Owns(key ids.ID) bool {
	if r.ownerIdx != nil {
		return int(r.ownerIdx.Load()) == r.i
	}
	for _, ep := range r.c.eps {
		if ep.Up() {
			return transport.Addr(ep.Addr()) == r.Self()
		}
	}
	return false
}

// newReplCluster builds a soak cluster with owner-state replication at
// degree k on every node (k=0 disables the subsystem entirely — the
// control configuration).
func newReplCluster(t *testing.T, seed int64, k int, cfg grid.Config) *cluster {
	return newReplClusterN(t, replNodes, seed, k, cfg, nil, uniform)
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
		Nodes:       replNodes,
		Protect:     []int{replClient},
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

// runReplSoak executes one seeded schedule at replication degree k and
// returns the event trace plus the resubmission count. It fails the
// test if any job never terminates or any GUID is delivered twice.
func runReplSoak(t *testing.T, seed int64, k int, plan faultinject.Plan) (trace []string, resubmits int) {
	t.Helper()
	c := newReplCluster(t, seed, k, soakCfg())
	defer c.e.Shutdown()
	c.nodes[replClient].StartClientMonitor(15 * time.Second)

	c.do(replClient, func(rt transport.Runtime) {
		for i := 0; i < replJobs; i++ {
			if _, err := c.nodes[replClient].Submit(rt, grid.JobSpec{Work: time.Duration(6+i%4) * time.Second}); err != nil {
				t.Fatalf("seed %d k=%d: submit %d: %v", seed, k, i, err)
			}
		}
	})
	// Calm period before the faults: a couple of anti-entropy rounds
	// seed every successor, so the schedule probes recovery, not the
	// race between the very first push and the very first crash.
	c.e.RunFor(3 * time.Second)

	sched := faultinject.Generate(seed, plan)
	c.net.Faults = sched.Injector(func() time.Duration { return time.Duration(c.e.Now()) })
	disarm := sched.Arm(c.e, c.net, soakHarness{c}, func(i int) simnet.Addr {
		return simnet.Addr(c.hosts[i].Addr())
	})
	defer disarm()

	deadline := c.e.Now().Add(10 * time.Minute)
	for c.e.Now() < deadline && c.nodes[replClient].PendingCount() > 0 {
		c.e.RunFor(5 * time.Second)
	}
	if left := c.nodes[replClient].PendingCount(); left != 0 {
		t.Fatalf("seed %d k=%d: %d of %d jobs never terminated", seed, k, left, replJobs)
	}

	c.rec.mu.Lock()
	delivered := map[ids.ID]int{}
	total := 0
	for _, ev := range c.rec.evs {
		if ev.Kind == grid.EvResultDelivered {
			delivered[ev.JobID]++
			total++
		}
	}
	c.rec.mu.Unlock()
	for id, n := range delivered {
		if n > 1 {
			t.Fatalf("seed %d k=%d: job %s delivered %d times", seed, k, id.Short(), n)
		}
	}
	if total != replJobs {
		t.Fatalf("seed %d k=%d: %d results delivered, want %d", seed, k, total, replJobs)
	}
	return eventTrace(c.rec), c.rec.count(grid.EvResubmitted)
}

// TestReplicatedSoakNoResubmits is the tentpole acceptance soak: under
// a simultaneous owner+run pair crash, ReplicaK=2 completes every job
// with zero client resubmissions on every seed, while the k=0 control
// over the identical schedules resubmits (in aggregate) — the double
// failure really happened, and replication really absorbed it.
func TestReplicatedSoakNoResubmits(t *testing.T) {
	controlResubmits := 0
	for seed := int64(1); seed <= 10; seed++ {
		if _, re := runReplSoak(t, seed, 2, replPlan(1, false)); re != 0 {
			t.Errorf("seed %d: %d resubmissions at ReplicaK=2, want 0", seed, re)
		}
		_, re := runReplSoak(t, seed, 0, replPlan(1, false))
		controlResubmits += re
	}
	if controlResubmits == 0 {
		t.Error("k=0 control never resubmitted: the schedules are not exercising the owner+run double failure")
	}
}

// TestReplicatedSoakWithRestarts hardens the subsystem against the
// full churn mix — pair crashes plus independent crashes with
// probabilistic restarts (restore and fencing paths live here). A
// restarted ring owner may still force a (safe) resubmission, so this
// soak asserts exactly-once termination, not zero resubmits.
func TestReplicatedSoakWithRestarts(t *testing.T) {
	seeds := 8
	if testing.Short() {
		seeds = 2
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		runReplSoak(t, seed, 2, replPlan(2, true))
	}
}

// TestReplicatedSoakReplayDeterministic: replication (anti-entropy,
// probes, promotion, fencing) must not cost the seeded soak its replay
// guarantee — same seed, byte-identical event trace.
func TestReplicatedSoakReplayDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		a, _ := runReplSoak(t, seed, 2, replPlan(2, true))
		b, _ := runReplSoak(t, seed, 2, replPlan(2, true))
		if len(a) != len(b) {
			t.Fatalf("seed %d: replay produced %d events, first run %d", seed, len(b), len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: traces diverge at event %d:\n  first:  %s\n  replay: %s", seed, i, a[i], b[i])
			}
		}
	}
}
