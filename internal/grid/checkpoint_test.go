package grid_test

import (
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/resource"
	"repro/internal/transport"
)

// ckptCfg is the checkpoint-enabled recovery configuration the
// black-box tests share: fast heartbeats, snapshots every 2 s.
func ckptCfg() grid.Config {
	return grid.Config{
		HeartbeatEvery:  time.Second,
		RunDeadAfter:    3 * time.Second,
		OwnerDeadAfter:  3 * time.Second,
		CheckpointEvery: 2 * time.Second,
	}
}

// startAndFindRun submits one job from client node ci and returns the
// run node's address once execution starts.
func startAndFindRun(t *testing.T, c *cluster, ci int, spec grid.JobSpec) transport.Addr {
	t.Helper()
	c.do(ci, func(rt transport.Runtime) {
		if _, err := c.nodes[ci].Submit(rt, spec); err != nil {
			t.Fatalf("submit: %v", err)
		}
		for c.rec.count(grid.EvStarted) == 0 {
			rt.Sleep(time.Second)
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
	return runAddr
}

// TestCheckpointResumeAfterRunNodeCrash is the tentpole's core path:
// the run node snapshots progress, ships it to the owner over
// heartbeats, the owner detects the crash, and the rematch assignment
// carries the checkpoint so the replacement resumes instead of
// restarting from zero.
func TestCheckpointResumeAfterRunNodeCrash(t *testing.T) {
	c := newCluster(t, 4, 5, ckptCfg(), uniform)
	defer c.e.Shutdown()
	runAddr := startAndFindRun(t, c, 0, grid.JobSpec{Work: 30 * time.Second})
	victim := -1
	for i, h := range c.hosts {
		if h.Addr() == runAddr {
			victim = i
		}
	}
	if victim == 0 {
		t.Skip("job ran on the client node itself; crash would kill the client role")
	}
	// Let a few checkpoints be taken and shipped before the crash.
	c.e.RunFor(8 * time.Second)
	if c.rec.count(grid.EvCheckpointed) == 0 {
		t.Fatal("no checkpoints taken before the crash")
	}
	c.hosts[victim].Crash()
	c.do(0, func(rt transport.Runtime) {
		if left := c.nodes[0].AwaitAll(rt, rt.Now()+5*time.Minute); left != 0 {
			t.Fatalf("job never recovered (%d unfinished)", left)
		}
	})
	if c.rec.count(grid.EvRunFailureDetected) == 0 {
		t.Fatal("owner never detected the run-node failure")
	}
	// The replacement must have resumed from owner-held progress, and
	// its EvStarted carries the same resume offset.
	c.rec.mu.Lock()
	resumed, started := time.Duration(0), time.Duration(-1)
	for _, ev := range c.rec.evs {
		if ev.Node == runAddr {
			continue
		}
		switch ev.Kind {
		case grid.EvResumed:
			resumed = ev.Progress
		case grid.EvStarted:
			started = ev.Progress
		}
	}
	c.rec.mu.Unlock()
	if resumed <= 0 {
		t.Fatal("replacement run node did not resume from a checkpoint")
	}
	if started != resumed {
		t.Fatalf("replacement's EvStarted progress %v, want the resume offset %v", started, resumed)
	}
	if got := c.rec.count(grid.EvResultDelivered); got != 1 {
		t.Fatalf("%d results delivered, want exactly 1", got)
	}
}

// TestCheckpointSurvivesOwnerAndRunFailure chains both recovery paths:
// the owner dies (the adoption request carries the run node's newest
// snapshot to the new owner), then the run node dies too — the new
// owner's rematch must still resume the job from checkpointed progress.
func TestCheckpointSurvivesOwnerAndRunFailure(t *testing.T) {
	// Nodes 0 and 1 are too weak to run the job: 0 is the initial owner,
	// 1 the adoption target. Node 3 is the client; node 2 runs the job
	// first, and after its crash only the client node remains capable.
	c := newCluster(t, 4, 6, ckptCfg(), func(i int) (resource.Vector, string) {
		cpu := 5.0
		if i < 2 {
			cpu = 1
		}
		return resource.Vector{cpu, 4096, 100}, "linux"
	})
	defer c.e.Shutdown()
	cons := resource.Unconstrained.Require(resource.CPU, 2)
	runAddr := startAndFindRun(t, c, 3, grid.JobSpec{Cons: cons, Work: 40 * time.Second})
	if runAddr != c.hosts[2].Addr() {
		t.Skipf("job ran on %s, not the expected run node", runAddr)
	}
	// Checkpoints accumulate, then the owner dies.
	c.e.RunFor(8 * time.Second)
	c.hosts[0].Crash()
	for i := 0; i < 60 && c.rec.count(grid.EvOwnerAdopted) == 0; i++ {
		c.e.RunFor(time.Second)
	}
	if c.rec.count(grid.EvOwnerAdopted) == 0 {
		t.Fatal("orphaned job never adopted")
	}
	// Now the run node dies; the new owner (node 1) must rematch with
	// the checkpoint it received through adoption or later heartbeats.
	c.hosts[2].Crash()
	c.do(3, func(rt transport.Runtime) {
		if left := c.nodes[3].AwaitAll(rt, rt.Now()+6*time.Minute); left != 0 {
			t.Fatalf("job lost after owner+run failure (%d unfinished)", left)
		}
	})
	c.rec.mu.Lock()
	resumed := time.Duration(0)
	for _, ev := range c.rec.evs {
		if ev.Kind == grid.EvResumed && ev.Node == c.hosts[3].Addr() {
			resumed = ev.Progress
		}
	}
	c.rec.mu.Unlock()
	if resumed <= 0 {
		t.Fatal("job was not resumed from checkpointed progress after both failures")
	}
}

// TestOversizedCheckpointShipsViaRPC forces snapshot state past the
// heartbeat piggyback budget, so checkpoints must travel in standalone
// grid.checkpoint calls — and recovery must still resume from them.
func TestOversizedCheckpointShipsViaRPC(t *testing.T) {
	c := newCluster(t, 4, 5, ckptCfg(), uniform)
	defer c.e.Shutdown()
	// 16 KB of input seeds 16 KB of resumable state vs the 4 KB piggyback cap.
	runAddr := startAndFindRun(t, c, 0, grid.JobSpec{Work: 30 * time.Second, Input: make([]byte, 16*1024)})
	victim := -1
	for i, h := range c.hosts {
		if h.Addr() == runAddr {
			victim = i
		}
	}
	if victim == 0 {
		t.Skip("job ran on the client node itself")
	}
	c.e.RunFor(8 * time.Second)
	c.hosts[victim].Crash()
	c.do(0, func(rt transport.Runtime) {
		if left := c.nodes[0].AwaitAll(rt, rt.Now()+5*time.Minute); left != 0 {
			t.Fatalf("job never recovered (%d unfinished)", left)
		}
	})
	if c.rec.count(grid.EvResumed) == 0 {
		t.Fatal("oversized checkpoint never reached the owner (no resume)")
	}
	if c.net.Stats.ByMethod[grid.MCkpt] == 0 {
		t.Fatal("no grid.checkpoint RPC: the snapshot fit the heartbeat after all")
	}
}

// TestCheckpointDisabledByDefault: the zero config must reproduce the
// paper's restart-from-scratch behaviour — no snapshots, no resumes.
func TestCheckpointDisabledByDefault(t *testing.T) {
	cfg := grid.Config{HeartbeatEvery: time.Second, RunDeadAfter: 3 * time.Second}
	c := newCluster(t, 4, 5, cfg, uniform)
	defer c.e.Shutdown()
	runAddr := startAndFindRun(t, c, 0, grid.JobSpec{Work: 20 * time.Second})
	victim := -1
	for i, h := range c.hosts {
		if h.Addr() == runAddr {
			victim = i
		}
	}
	if victim != 0 {
		c.e.RunFor(5 * time.Second)
		c.hosts[victim].Crash()
	}
	c.do(0, func(rt transport.Runtime) {
		if left := c.nodes[0].AwaitAll(rt, rt.Now()+5*time.Minute); left != 0 {
			t.Fatalf("%d unfinished", left)
		}
	})
	if n := c.rec.count(grid.EvCheckpointed); n != 0 {
		t.Fatalf("%d checkpoints taken with checkpointing off", n)
	}
	if n := c.rec.count(grid.EvResumed); n != 0 {
		t.Fatalf("%d resumes with checkpointing off", n)
	}
}

// TestCheckpointedSpeedScaling: snapshots are kept in nominal-work
// units, so resume on a faster node must still produce a correctly
// scaled runtime (no double scaling of the remaining work).
func TestCheckpointedSpeedScaling(t *testing.T) {
	cfg := ckptCfg()
	cfg.SpeedScaling = true
	c := newCluster(t, 1, 10, cfg, func(i int) (resource.Vector, string) {
		return resource.Vector{4, 1024, 10}, "linux" // cpu speed 4
	})
	defer c.e.Shutdown()
	var started, finished time.Duration
	c.do(0, func(rt transport.Runtime) {
		if _, err := c.nodes[0].Submit(rt, grid.JobSpec{Work: 40 * time.Second}); err != nil {
			t.Fatalf("submit: %v", err)
		}
		if left := c.nodes[0].AwaitAll(rt, rt.Now()+5*time.Minute); left != 0 {
			t.Fatal("unfinished")
		}
	})
	c.rec.mu.Lock()
	for _, ev := range c.rec.evs {
		if ev.Kind == grid.EvStarted {
			started = ev.At
		}
		if ev.Kind == grid.EvResultDelivered {
			finished = ev.At
		}
	}
	c.rec.mu.Unlock()
	elapsed := finished - started
	if elapsed < 9*time.Second || elapsed > 12*time.Second {
		t.Fatalf("scaled runtime %v, want ~10s (40s work / speed 4)", elapsed)
	}
}

// TestCheckpointPartitionedRunNotAbsorbed: after a rematch caused by a
// partition, the owner must reject checkpoints from the excluded (but
// still running) old node, so the replacement's progress is never
// overwritten by a zombie. Externally: exactly one delivery, and every
// recorded resume offset comes from the replacement chain.
func TestCheckpointPartitionedRunNotAbsorbed(t *testing.T) {
	c := newCluster(t, 4, 8, ckptCfg(), uniform)
	defer c.e.Shutdown()
	runAddr := startAndFindRun(t, c, 0, grid.JobSpec{Work: 25 * time.Second})
	c.e.RunFor(5 * time.Second)
	// Partition the run node away; it keeps executing and checkpointing
	// but its heartbeats and checkpoints no longer land anywhere.
	c.net.SetReachable(func(a, b transport.Addr) bool {
		return a != runAddr && b != runAddr
	})
	c.do(0, func(rt transport.Runtime) {
		if left := c.nodes[0].AwaitAll(rt, rt.Now()+5*time.Minute); left != 0 {
			t.Fatalf("%d unfinished", left)
		}
	})
	c.net.SetReachable(nil)
	c.e.RunFor(2 * time.Minute)
	if got := c.rec.count(grid.EvResultDelivered); got != 1 {
		t.Fatalf("%d results delivered, want exactly 1", got)
	}
}
