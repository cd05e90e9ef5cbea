package grid_test

import (
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/ids"
	"repro/internal/match"
	"repro/internal/resource"
	"repro/internal/transport"
)

// relayCluster builds the 4-node relay scenario: node 0 is the owner
// (switchable overlay) but cannot run jobs, node 3 (the client) cannot
// either, so the job must land on node 1 or 2.
func relayCluster(t *testing.T, seed int64, cfg grid.Config) *cluster {
	t.Helper()
	return newCluster(t, 4, seed, cfg, func(i int) (resource.Vector, string) {
		cpu := 5.0
		if i == 0 || i == 3 {
			cpu = 1
		}
		return resource.Vector{cpu, 4096, 100}, "linux"
	})
}

// TestResultRelayThroughOwner exercises the paper's "owner node is
// responsible for ... ensuring that its results are returned to the
// client": the client is partitioned away while its job completes, the
// run node's direct delivery fails, and the owner relays the result
// once the partition heals — within the owner's bounded relay budget.
func TestResultRelayThroughOwner(t *testing.T) {
	cfg := grid.Config{HeartbeatEvery: time.Second, ResultRetries: 5}
	c := relayCluster(t, 21, cfg)
	defer c.e.Shutdown()
	clientAddr := c.hosts[3].Addr()
	cons := resource.Unconstrained.Require(resource.CPU, 2)

	c.do(3, func(rt transport.Runtime) {
		if _, err := c.nodes[3].Submit(rt, grid.JobSpec{Cons: cons, Work: 5 * time.Second}); err != nil {
			t.Fatalf("submit: %v", err)
		}
		for c.rec.count(grid.EvStarted) == 0 {
			rt.Sleep(time.Second)
		}
	})

	// Partition the client from everyone. The job finishes, direct
	// delivery fails, the run node hands the result to the owner.
	c.net.SetReachable(func(a, b transport.Addr) bool {
		return a != clientAddr && b != clientAddr
	})
	c.e.RunFor(30 * time.Second)
	if got := c.rec.count(grid.EvResultDelivered); got != 0 {
		t.Fatalf("result delivered through a partition (%d)", got)
	}

	// Heal: the owner's monitor loop retries the relay.
	c.net.SetReachable(nil)
	c.e.RunFor(2 * time.Minute)
	if got := c.rec.count(grid.EvResultDelivered); got != 1 {
		t.Fatalf("relay after heal delivered %d results, want 1", got)
	}
	if got := c.rec.count(grid.EvGaveUp); got != 0 {
		t.Fatalf("owner gave up on a job whose client returned (%d)", got)
	}
}

// TestRelayGivesUpWhenClientNeverReturns is the other side of the
// bounded relay budget: a client that never comes back must not pin
// the owner's job entry forever. The owner retries ResultRetries
// times, records EvGaveUp, and forgets the job.
func TestRelayGivesUpWhenClientNeverReturns(t *testing.T) {
	cfg := grid.Config{HeartbeatEvery: time.Second, ResultRetries: 3}
	c := relayCluster(t, 23, cfg)
	defer c.e.Shutdown()
	clientAddr := c.hosts[3].Addr()
	cons := resource.Unconstrained.Require(resource.CPU, 2)

	var jobID ids.ID
	c.do(3, func(rt transport.Runtime) {
		var err error
		jobID, err = c.nodes[3].Submit(rt, grid.JobSpec{Cons: cons, Work: 5 * time.Second})
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		for c.rec.count(grid.EvStarted) == 0 {
			rt.Sleep(time.Second)
		}
	})

	// The client vanishes for good.
	c.net.SetReachable(func(a, b transport.Addr) bool {
		return a != clientAddr && b != clientAddr
	})
	c.e.RunFor(3 * time.Minute)
	if got := c.rec.count(grid.EvResultDelivered); got != 0 {
		t.Fatalf("result delivered to a vanished client (%d)", got)
	}
	if got := c.rec.count(grid.EvGaveUp); got != 1 {
		t.Fatalf("EvGaveUp recorded %d times, want 1", got)
	}

	// The owner no longer tracks the job: a status probe from a live
	// node reports it unknown, which is what lets the client's monitor
	// resubmit if it ever returns.
	c.do(1, func(rt transport.Runtime) {
		raw, err := rt.Call(c.hosts[0].Addr(), grid.MStatus, grid.StatusReq{JobID: jobID})
		if err != nil {
			t.Fatalf("status: %v", err)
		}
		if raw.(grid.StatusResp).Known {
			t.Fatal("owner still tracks the given-up job")
		}
	})
}

// TestMatchRetryAfterTransientFailure verifies that an owner that finds
// no candidate keeps retrying and succeeds once capacity appears (here:
// a capable node joins the matchmaker's view mid-run).
func TestMatchRetryAfterTransientFailure(t *testing.T) {
	cfg := grid.Config{MatchRetryEvery: 2 * time.Second, MaxRematch: 10}
	c := newCluster(t, 3, 22, cfg, func(i int) (resource.Vector, string) {
		cpu := 1.0
		if i == 2 {
			cpu = 8 // the only capable node...
		}
		return resource.Vector{cpu, 1024, 50}, "linux"
	})
	defer c.e.Shutdown()
	// ...but it is invisible to the matchmaker until t=6s.
	appeared := false
	c.reg.Register(c.hosts[2].Addr(), match.RegistryEntry{
		Caps: resource.Vector{8, 1024, 50},
		OS:   "linux",
		Load: c.nodes[2].QueueLen,
		Up:   func() bool { return appeared && c.hosts[2].Up() },
	})
	c.e.Schedule(6*time.Second, func() { appeared = true })

	cons := resource.Unconstrained.Require(resource.CPU, 5)
	c.do(0, func(rt transport.Runtime) {
		if _, err := c.nodes[0].Submit(rt, grid.JobSpec{Cons: cons, Work: 5 * time.Second}); err != nil {
			t.Fatalf("submit: %v", err)
		}
		if left := c.nodes[0].AwaitAll(rt, rt.Now()+5*time.Minute); left != 0 {
			t.Fatalf("%d unfinished", left)
		}
	})
	if c.rec.count(grid.EvMatchFailed) == 0 {
		t.Fatal("expected at least one failed match before capacity appeared")
	}
}
