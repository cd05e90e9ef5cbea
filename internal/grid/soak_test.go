package grid_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/grid"
	"repro/internal/ids"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// The recovery soak drives the full grid stack through hundreds of
// distinct randomly generated — but seed-replayable — failure
// schedules: message drops/delays/duplicates on the grid's own RPC
// methods, node crashes with probabilistic restarts, and temporary
// partitions. For every schedule it asserts the paper's core
// robustness claim: every submitted job terminates exactly once at the
// client, no matter what the fault layer did to the protocol.

const (
	soakNodes  = 7 // node 6 is the client and is protected
	soakClient = soakNodes - 1
	soakJobs   = 8
)

// soakHarness adapts the test cluster to faultinject.Harness.
type soakHarness struct{ c *cluster }

func (h soakHarness) Crash(i int) { h.c.eps[i].Crash() }
func (h soakHarness) Restart(i int) {
	h.c.eps[i].Restart()
	h.c.nodes[i].Restart()
}

func soakPlan() faultinject.Plan {
	return faultinject.Plan{
		Nodes:           soakNodes,
		Protect:         []int{soakClient},
		Window:          45 * time.Second,
		Crashes:         3,
		RestartProb:     0.7,
		RestartDelayMin: 5 * time.Second,
		RestartDelayMax: 20 * time.Second,
		Partitions:      1,
		PartitionSize:   2,
		PartitionDurMin: 5 * time.Second,
		PartitionDurMax: 15 * time.Second,
		Rules: []faultinject.Rule{
			{Method: grid.MHeartbeat, DropProb: 0.3},
			{Method: grid.MComplete, DropProb: 0.2, DupProb: 0.2},
			{Method: grid.MResult, DropProb: 0.2, DupProb: 0.2},
			{Method: grid.MAssign, DropProb: 0.1, DupProb: 0.1},
			{Method: grid.MRelay, DropProb: 0.1},
			{Method: grid.MAdopt, DropProb: 0.1, DupProb: 0.1},
			{DelayProb: 0.1, DelayMin: 50 * time.Millisecond, DelayMax: 500 * time.Millisecond},
		},
	}
}

func soakCfg() grid.Config {
	return grid.Config{
		HeartbeatEvery:  time.Second,
		RunDeadAfter:    3 * time.Second,
		OwnerDeadAfter:  3 * time.Second,
		MatchRetryEvery: 2 * time.Second,
		MaxRematch:      8,
	}
}

// soakCkptCfg is the soak configuration with adaptive checkpointing on,
// intervals tightened to the soak's few-second jobs.
func soakCkptCfg() grid.Config {
	cfg := soakCfg()
	cfg.CheckpointEvery = 2 * time.Second
	cfg.CheckpointAdaptive = true
	cfg.CheckpointMinEvery = time.Second
	cfg.CheckpointMaxEvery = 5 * time.Second
	return cfg
}

// runSoak executes one seeded schedule and returns the full event
// trace (for replay comparison). It fails the test, tagged with the
// seed, if any job is lost or delivered more than once.
func runSoak(t *testing.T, seed int64) []string {
	return runSoakCfg(t, seed, soakCfg())
}

func runSoakCfg(t *testing.T, seed int64, cfg grid.Config) []string {
	return runSoakPrep(t, seed, cfg, nil)
}

// runSoakPrep is runSoakCfg with a hook that runs against the fresh
// cluster before anything is scheduled — the stats-neutrality soak uses
// it to flip kernel instrumentation on without otherwise touching the
// run.
func runSoakPrep(t *testing.T, seed int64, cfg grid.Config, prep func(c *cluster)) []string {
	t.Helper()
	c := newCluster(t, soakNodes, seed, cfg, uniform)
	defer c.e.Shutdown()
	if prep != nil {
		prep(c)
	}
	c.nodes[soakClient].StartClientMonitor(15 * time.Second)

	// Submit everything on a clean network, then arm the schedule: the
	// faults land on the execution and recovery phases, which is what
	// the soak is probing.
	c.do(soakClient, func(rt transport.Runtime) {
		for i := 0; i < soakJobs; i++ {
			if _, err := c.nodes[soakClient].Submit(rt, grid.JobSpec{Work: time.Duration(2+i%4) * time.Second}); err != nil {
				t.Fatalf("seed %d: submit %d: %v", seed, i, err)
			}
		}
	})

	sched := faultinject.Generate(seed, soakPlan())
	c.net.Faults = sched.Injector(func() time.Duration { return time.Duration(c.e.Now()) })
	disarm := sched.Arm(c.e, c.net, soakHarness{c}, func(i int) simnet.Addr {
		return simnet.Addr(c.hosts[i].Addr())
	})
	defer disarm() // before Shutdown's drain, which runs LIFO after this

	deadline := c.e.Now().Add(10 * time.Minute)
	for c.e.Now() < deadline && c.nodes[soakClient].PendingCount() > 0 {
		c.e.RunFor(5 * time.Second)
	}
	if left := c.nodes[soakClient].PendingCount(); left != 0 {
		t.Fatalf("seed %d: %d of %d jobs never terminated (crashes=%d parts=%d)",
			seed, left, soakJobs, len(sched.Nodes), len(sched.Parts))
	}

	// Exactly once: every delivery is for a distinct GUID, and the
	// number of deliveries matches the number of submitted jobs —
	// resubmissions retire the old GUID before minting a new one, so
	// each job lineage ends in exactly one delivery.
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
			t.Fatalf("seed %d: job %s delivered %d times", seed, id.Short(), n)
		}
	}
	if total != soakJobs {
		t.Fatalf("seed %d: %d results delivered, want %d", seed, total, soakJobs)
	}

	return eventTrace(c.rec)
}

// eventTrace renders every recorded event as one line, including the
// voting fields (digest, reputation delta, client seq) so the replay
// checks cover sabotage-tolerance outcomes too.
func eventTrace(rec *recorder) []string {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	trace := make([]string, len(rec.evs))
	for i, ev := range rec.evs {
		trace[i] = fmt.Sprintf("%v %s a%d %s @%v +%v d=%s r=%+.2f s%d",
			ev.Kind, ev.JobID.Short(), ev.Attempt, ev.Node, ev.At, ev.Progress, ev.Digest, ev.Delta, ev.Seq)
	}
	return trace
}

func TestRecoverySoak(t *testing.T) {
	seeds := 120
	if testing.Short() {
		seeds = 30
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		runSoak(t, seed)
	}
}

// TestRecoverySoakCheckpointed re-runs the soak with adaptive
// checkpointing enabled: snapshots, piggybacked shipping, and resume
// paths must preserve the exactly-once guarantee under every fault
// schedule, not just speed recovery up.
func TestRecoverySoakCheckpointed(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 15
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		runSoakCfg(t, seed, soakCkptCfg())
	}
}

// TestRecoverySoakReplayDeterministic re-runs a handful of schedules
// and requires the event trace to be byte-identical: the whole point
// of seeding the fault layer is that any failure it surfaces can be
// replayed exactly.
func TestRecoverySoakReplayDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		assertReplayIdentical(t, seed, soakCfg())
	}
}

// TestRecoverySoakCheckpointedReplayDeterministic extends the replay
// guarantee to the checkpoint subsystem: snapshot instants, shipping,
// and resume offsets must be bit-identical across replays (the trace
// lines include each event's Progress field).
func TestRecoverySoakCheckpointedReplayDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		assertReplayIdentical(t, seed, soakCkptCfg())
	}
}

func assertReplayIdentical(t *testing.T, seed int64, cfg grid.Config) {
	t.Helper()
	a := runSoakCfg(t, seed, cfg)
	b := runSoakCfg(t, seed, cfg)
	if len(a) != len(b) {
		t.Fatalf("seed %d: replay produced %d events, first run %d", seed, len(b), len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed %d: traces diverge at event %d:\n  first:  %s\n  replay: %s", seed, i, a[i], b[i])
		}
	}
}
