package grid_test

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/ids"
	"repro/internal/replica"
	"repro/internal/resource"
	"repro/internal/transport"
)

// Deterministic churn-handoff scenarios for the owner-state
// replication subsystem (DESIGN.md §10): promotion after an owner+run
// pair crash, restore after an owner restart, stale-owner fencing
// after the ring moves on, and replica-set re-targeting after a
// successor crash. These stage one transition each; the seeded soaks
// in repl_soak_test.go cover the combinatorics.

// handoffCaps keeps the client node out of the run-node candidate
// pool (its OS never matches linuxJob), so crashing "the run node"
// never collides with the protected client.
func handoffCaps(client int) func(i int) (resource.Vector, string) {
	return func(i int) (resource.Vector, string) {
		if i == client {
			return resource.Vector{5, 4096, 100}, "client-only"
		}
		return resource.Vector{5, 4096, 100}, "linux"
	}
}

func linuxJob(work time.Duration) grid.JobSpec {
	return grid.JobSpec{Cons: resource.Unconstrained.RequireOS("linux"), Work: work}
}

// submitAndStart submits one job from the client and runs the engine
// until some run node reports EvStarted; it returns the job GUID and
// the run node's address.
func submitAndStart(t *testing.T, c *cluster, client int, spec grid.JobSpec) (ids.ID, transport.Addr) {
	t.Helper()
	var jobID ids.ID
	c.do(client, func(rt transport.Runtime) {
		id, err := c.nodes[client].Submit(rt, spec)
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		jobID = id
		for c.rec.count(grid.EvStarted) == 0 {
			rt.Sleep(500 * time.Millisecond)
		}
	})
	var runAddr transport.Addr
	c.rec.mu.Lock()
	for _, ev := range c.rec.evs {
		if ev.Kind == grid.EvStarted {
			runAddr = ev.Node
		}
	}
	c.rec.mu.Unlock()
	return jobID, runAddr
}

// awaitAll drives the engine until the client's pending set drains.
func awaitAll(t *testing.T, c *cluster, client int) {
	t.Helper()
	c.do(client, func(rt transport.Runtime) {
		if left := c.nodes[client].AwaitAll(rt, rt.Now()+15*time.Minute); left != 0 {
			t.Fatalf("%d jobs never completed", left)
		}
	})
}

// runUntil advances the engine until cond holds or the budget runs out.
func runUntil(c *cluster, budget time.Duration, cond func() bool) bool {
	deadline := c.e.Now().Add(budget)
	for c.e.Now() < deadline {
		if cond() {
			return true
		}
		c.e.RunFor(time.Second)
	}
	return cond()
}

// replStatus fetches the replication status of jobID from node target
// via the grid.replicas RPC.
func replStatus(t *testing.T, c *cluster, client, target int, jobID ids.ID) replica.Status {
	t.Helper()
	var st replica.Status
	c.do(client, func(rt transport.Runtime) {
		resp, err := rt.Call(c.hosts[target].Addr(), grid.MReplicas, grid.ReplicasReq{JobID: jobID})
		if err != nil {
			t.Fatalf("grid.replicas on node %d: %v", target, err)
		}
		st = resp.(grid.ReplicasResp).Status
	})
	return st
}

// TestPairCrashPromotionHandsOver kills the owner and the run node at
// the same instant. A successor holding the replicated owner record
// must promote itself, rematch the job, and finish it — with zero
// client resubmissions.
func TestPairCrashPromotionHandsOver(t *testing.T) {
	const client = 4
	c := newReplClusterN(t, 5, 11, 2, soakCfg(), nil, handoffCaps(client))
	defer c.e.Shutdown()
	c.nodes[client].StartClientMonitor(10 * time.Second)

	_, runAddr := submitAndStart(t, c, client, linuxJob(20*time.Second))
	c.e.RunFor(2500 * time.Millisecond) // let anti-entropy seed the successors

	c.hosts[0].Crash() // the switchable overlay routes ownership to n000
	for i, h := range c.hosts {
		if h.Addr() == runAddr && i != 0 {
			c.hosts[i].Crash()
		}
	}

	awaitAll(t, c, client)
	if n := c.rec.count(grid.EvResubmitted); n != 0 {
		t.Errorf("client resubmitted %d times; replication should have absorbed the double failure", n)
	}
	if c.rec.count(grid.EvPromoted) == 0 {
		t.Error("no replica promoted itself after the owner died")
	}
	if c.rec.count(grid.EvHandoff) == 0 {
		t.Error("promotion never re-established an execution path (no handoff event)")
	}
	if n := c.rec.count(grid.EvResultDelivered); n != 1 {
		t.Errorf("%d results delivered, want exactly 1", n)
	}
}

// TestOwnerRestartRestores crashes the owner briefly — shorter than
// the replica layer's DeadAfter, so no successor promotes — and restarts it with
// wiped state. The replicas' probe round must detect the amnesiac
// owner and push its records back (EvRestored), after which it
// re-attaches to the run node and the job completes.
func TestOwnerRestartRestores(t *testing.T) {
	const client = 4
	c := newReplClusterN(t, 5, 12, 2, soakCfg(), nil, handoffCaps(client))
	defer c.e.Shutdown()
	c.nodes[client].StartClientMonitor(10 * time.Second)

	submitAndStart(t, c, client, linuxJob(20*time.Second))
	c.e.RunFor(2500 * time.Millisecond)

	c.hosts[0].Crash()
	c.e.RunFor(1200 * time.Millisecond) // well inside DeadAfter (3s)
	soakHarness{c}.Restart(0)

	awaitAll(t, c, client)
	if c.rec.count(grid.EvRestored) == 0 {
		t.Error("restarted owner never had its records restored by its replicas")
	}
	if n := c.rec.count(grid.EvPromoted); n != 0 {
		t.Errorf("%d promotions during a sub-threshold outage, want 0", n)
	}
	if n := c.rec.count(grid.EvResubmitted); n != 0 {
		t.Errorf("client resubmitted %d times, want 0", n)
	}
	if n := c.rec.count(grid.EvResultDelivered); n != 1 {
		t.Errorf("%d results delivered, want exactly 1", n)
	}
}

// TestStaleOwnerFencedDemotes stages the split-brain case: the owner
// crashes, the ring moves on (scripted ownerIdx), a successor takes
// over, and then the old owner's endpoint comes back with its state
// intact. The new owner's anti-entropy must fence the stale owner —
// it demotes (EvDemoted) instead of fighting for the job, and the job
// still terminates exactly once.
func TestStaleOwnerFencedDemotes(t *testing.T) {
	const client = 4
	ownerIdx := &atomic.Int32{} // ring owner starts at n000
	// k=4 so the new owner's successor set wraps around to include the
	// old owner once its endpoint returns.
	c := newReplClusterN(t, 5, 13, 4, soakCfg(), ownerIdx, handoffCaps(client))
	defer c.e.Shutdown()
	c.nodes[client].StartClientMonitor(10 * time.Second)

	submitAndStart(t, c, client, linuxJob(25*time.Second))
	c.e.RunFor(2500 * time.Millisecond)

	c.hosts[0].Crash()
	ownerIdx.Store(1) // the ring hands n000's arc to n001

	// The surviving run node adopts via the overlay and/or n001
	// promotes off its replica — either way n001 opens a new epoch.
	if !runUntil(c, 30*time.Second, func() bool {
		return c.rec.count(grid.EvPromoted)+c.rec.count(grid.EvOwnerAdopted) > 0
	}) {
		t.Fatal("no takeover after the owner crash")
	}
	c.e.RunFor(2 * time.Second)

	// Endpoint-only restart: the stale owner returns with its owned
	// map intact but the ring no longer assigns it the job's key.
	c.hosts[0].Restart()
	if !runUntil(c, 30*time.Second, func() bool {
		return c.rec.count(grid.EvDemoted) > 0
	}) {
		t.Fatal("stale owner was never fenced and demoted")
	}

	awaitAll(t, c, client)
	if n := c.rec.count(grid.EvResubmitted); n != 0 {
		t.Errorf("client resubmitted %d times, want 0", n)
	}
	if n := c.rec.count(grid.EvResultDelivered); n != 1 {
		t.Errorf("%d results delivered, want exactly 1", n)
	}
}

// TestReplicaSetRetargets crashes one replica and checks — through the
// grid.replicas RPC — that the owner re-targets its pushes to the next
// live successor and gets an ack at the current (epoch, version).
func TestReplicaSetRetargets(t *testing.T) {
	const client = 5
	c := newReplClusterN(t, 6, 14, 2, soakCfg(), nil, handoffCaps(client))
	defer c.e.Shutdown()
	c.nodes[client].StartClientMonitor(10 * time.Second)

	jobID, _ := submitAndStart(t, c, client, linuxJob(30*time.Second))
	c.e.RunFor(2500 * time.Millisecond)

	st := replStatus(t, c, client, 0, jobID)
	if !st.Known || st.Owner != c.hosts[0].Addr() {
		t.Fatalf("owner status before crash: %+v", st)
	}
	peers := func(st replica.Status) map[transport.Addr]bool {
		m := map[transport.Addr]bool{}
		for _, p := range st.Peers {
			m[p.Addr] = p.Acked
		}
		return m
	}
	before := peers(st)
	if !before[c.hosts[1].Addr()] || !before[c.hosts[2].Addr()] {
		t.Fatalf("replica set before crash not acked on n001+n002: %+v", st.Peers)
	}

	c.hosts[1].Crash()
	c.e.RunFor(3 * time.Second) // a push round re-targets and re-acks

	st = replStatus(t, c, client, 0, jobID)
	after := peers(st)
	if _, ok := after[c.hosts[1].Addr()]; ok {
		t.Errorf("crashed replica n001 still in the successor set: %+v", st.Peers)
	}
	if !after[c.hosts[2].Addr()] || !after[c.hosts[3].Addr()] {
		t.Errorf("replica set did not re-target to n002+n003 with acks: %+v", st.Peers)
	}

	awaitAll(t, c, client)
	if n := c.rec.count(grid.EvResubmitted); n != 0 {
		t.Errorf("client resubmitted %d times, want 0", n)
	}
	if n := c.rec.count(grid.EvResultDelivered); n != 1 {
		t.Errorf("%d results delivered, want exactly 1", n)
	}
}
