package grid_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/grid"
	"repro/internal/metrics"
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

// soakCkptCfg is the soak configuration with adaptive checkpointing on.
// The interval backs off to CheckpointMaxEvery while no failure is
// seen, so the cap must stay under the soak's 2-5 s jobs or no
// snapshot is ever taken.
func soakCkptCfg() grid.Config {
	cfg := soakCfg()
	cfg.CheckpointEvery = 2 * time.Second
	cfg.CheckpointAdaptive = true
	cfg.CheckpointMinEvery = time.Second
	cfg.CheckpointMaxEvery = 2 * time.Second
	return cfg
}

// soak is one seeded fault run on a built cluster: the parts in which
// the grid soaks differ. The last node is the client.
type soak struct {
	c        *cluster
	harness  faultinject.Harness
	plan     *faultinject.Plan // nil runs no fault schedule
	spec     func(i int) grid.JobSpec
	patience time.Duration // the client monitor's resubmit patience
	calm     time.Duration // quiet time between submission and the schedule
	deadline time.Duration
	tag      string // appended to the seed in failure messages
}

// recoverySoak is the base recovery soak on a cluster of soakNodes.
func recoverySoak(c *cluster) soak {
	plan := soakPlan()
	return soak{c: c, harness: soakHarness{c}, plan: &plan, spec: shortJobs,
		patience: 15 * time.Second, deadline: 10 * time.Minute}
}

// shortJobs is the soaks' job mix: 2-5 s of work.
func shortJobs(i int) grid.JobSpec { return grid.JobSpec{Work: time.Duration(2+i%4) * time.Second} }

// run submits soakJobs on a clean network, arms the fault schedule
// after the calm period, and drains until every job terminates or the
// deadline passes. It fails the test, tagged with the seed, if a job
// is still pending or the recorded events break the exactly-once
// contract (metrics.Collector.Check). It returns the event trace, for
// replay comparison, and the collector the events were replayed into.
func (s soak) run(t *testing.T, seed int64) ([]string, *metrics.Collector) {
	t.Helper()
	c := s.c
	client := c.nodes[len(c.nodes)-1]
	client.StartClientMonitor(s.patience)
	c.do(len(c.nodes)-1, func(rt transport.Runtime) {
		for i := 0; i < soakJobs; i++ {
			if _, err := client.Submit(rt, s.spec(i)); err != nil {
				t.Fatalf("seed %d%s: submit %d: %v", seed, s.tag, i, err)
			}
		}
	})
	if s.calm > 0 {
		c.e.RunFor(s.calm)
	}
	var sched faultinject.Schedule
	if s.plan != nil {
		sched = faultinject.Generate(seed, *s.plan)
		c.net.Faults = sched.Injector(func() time.Duration { return time.Duration(c.e.Now()) })
		disarm := sched.Arm(c.e, c.net, s.harness, func(i int) simnet.Addr {
			return simnet.Addr(c.hosts[i].Addr())
		})
		defer disarm() // before the caller's Shutdown drains the engine
	}

	deadline := c.e.Now().Add(s.deadline)
	for c.e.Now() < deadline && client.PendingCount() > 0 {
		c.e.RunFor(5 * time.Second)
	}
	if left := client.PendingCount(); left != 0 {
		t.Fatalf("seed %d%s: %d of %d jobs never terminated (crashes=%d parts=%d)",
			seed, s.tag, left, soakJobs, len(sched.Nodes), len(sched.Parts))
	}
	col := metrics.NewCollector()
	c.rec.mu.Lock()
	for _, ev := range c.rec.evs {
		col.Record(ev)
	}
	c.rec.mu.Unlock()
	if err := col.Check(soakJobs); err != nil {
		t.Fatalf("seed %d%s: %v", seed, s.tag, err)
	}
	return eventTrace(c.rec), col
}

// runSoak runs the base recovery soak with cfg on every node.
func runSoak(t *testing.T, seed int64, cfg grid.Config) ([]string, *metrics.Collector) {
	t.Helper()
	c := newCluster(t, soakNodes, seed, cfg, uniform)
	defer c.e.Shutdown()
	return recoverySoak(c).run(t, seed)
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

// sameTrace fails the test at the first event where two runs' traces
// differ; what names the two runs.
func sameTrace(t *testing.T, what string, a, b []string) {
	t.Helper()
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			t.Fatalf("%s: traces diverge at event %d:\n  %s\n  %s", what, i, a[i], b[i])
		}
	}
	if len(a) != len(b) {
		t.Fatalf("%s: %d events against %d", what, len(a), len(b))
	}
}

// seeds is full, or short under -short.
func seeds(full, short int64) int64 {
	if testing.Short() {
		return short
	}
	return full
}

func TestRecoverySoak(t *testing.T) {
	for seed := int64(1); seed <= seeds(120, 30); seed++ {
		runSoak(t, seed, soakCfg())
	}
}

// TestRecoverySoakCheckpointed re-runs the soak with adaptive
// checkpointing enabled: snapshots, piggybacked shipping, and resume
// paths must preserve the exactly-once guarantee under every fault
// schedule, not just speed recovery up. Across the seeds the runs must
// have taken snapshots and resumed from them, or the soak is toothless.
func TestRecoverySoakCheckpointed(t *testing.T) {
	ckpts, resumes := 0, 0
	for seed := int64(1); seed <= seeds(60, 15); seed++ {
		_, col := runSoak(t, seed, soakCkptCfg())
		ckpts += col.Count(grid.EvCheckpointed)
		resumes += col.Count(grid.EvResumed)
	}
	if ckpts == 0 || resumes == 0 {
		t.Fatalf("%d snapshots and %d resumes across the seeds: the soak is toothless", ckpts, resumes)
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
	a, _ := runSoak(t, seed, cfg)
	b, _ := runSoak(t, seed, cfg)
	sameTrace(t, fmt.Sprintf("seed %d replay", seed), a, b)
}
