package flow_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/flow"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/transport"
)

// The flow soak drives a whole DAG — not independent jobs — through
// seeded crash/drop schedules: owners die mid-stage, run nodes crash
// with inherited input bytes in their resumable state, and the client
// monitor resubmits stages whose lineage was wholly lost. The DAG must
// finish with every stage delivered exactly once, every output equal
// to its pure derivation (so inherited data survived recovery), and
// the full event trace must replay byte-identically.

const (
	flowSoakNodes  = 7
	flowSoakClient = flowSoakNodes - 1
)

type flowSoakHarness struct{ c *cluster }

func (h flowSoakHarness) Crash(i int) { h.c.hosts[i].Crash() }
func (h flowSoakHarness) Restart(i int) {
	h.c.hosts[i].Restart()
	h.c.nodes[i].Restart()
}

func flowSoakPlan() faultinject.Plan {
	return faultinject.Plan{
		Nodes:           flowSoakNodes,
		Protect:         []int{flowSoakClient},
		Window:          40 * time.Second,
		Crashes:         3,
		RestartProb:     0.7,
		RestartDelayMin: 5 * time.Second,
		RestartDelayMax: 15 * time.Second,
		Rules: []faultinject.Rule{
			{Method: grid.MHeartbeat, DropProb: 0.3},
			{Method: grid.MComplete, DropProb: 0.2, DupProb: 0.2},
			{Method: grid.MResult, DropProb: 0.2, DupProb: 0.2},
			{Method: grid.MAssign, DropProb: 0.1, DupProb: 0.1},
			{Method: grid.MAdopt, DropProb: 0.1, DupProb: 0.1},
			{DelayProb: 0.1, DelayMin: 50 * time.Millisecond, DelayMax: 500 * time.Millisecond},
		},
	}
}

func flowSoakCfg(aware bool) grid.Config {
	return grid.Config{
		HeartbeatEvery:          time.Second,
		RunDeadAfter:            3 * time.Second,
		OwnerDeadAfter:          3 * time.Second,
		MatchRetryEvery:         2 * time.Second,
		MaxRematch:              8,
		CheckpointEvery:         2 * time.Second,
		CheckpointAdaptive:      true,
		CheckpointMinEvery:      time.Second,
		CheckpointMaxEvery:      5 * time.Second,
		CheckpointWorkflowAware: aware,
	}
}

// flowSoakGraph: a fan-out/fan-in DAG with multi-second stages so the
// crash window reliably lands mid-stage. Submission order (and thus
// each stage's client seq) is deterministic: prep=1, mid1=2, mid2=3,
// sink=4.
func flowSoakGraph() flow.Graph {
	return flow.Graph{Name: "soak", Stages: []flow.Stage{
		{Name: "prep", Spec: grid.JobSpec{Work: 4 * time.Second, OutputKB: 2}},
		{Name: "mid1", Spec: grid.JobSpec{Work: 5 * time.Second, OutputKB: 1}, After: []string{"prep"}},
		{Name: "mid2", Spec: grid.JobSpec{Work: 4 * time.Second, OutputKB: 1}, After: []string{"prep"}},
		{Name: "sink", Spec: grid.JobSpec{Work: 3 * time.Second, OutputKB: 1}, After: []string{"mid1", "mid2"}},
	}}
}

// TestFlowSoakPlanNamesServedMethods runs CheckServed, the check
// gridnode and gridctl chaos apply to their -chaos rules, over the flow
// soak's plan against its cluster: a rule naming a method no node
// serves would match nothing and inject nothing.
func TestFlowSoakPlanNamesServedMethods(t *testing.T) {
	c := newCluster(t, flowSoakNodes, 1, flowSoakCfg(true))
	defer c.e.Shutdown()
	if err := faultinject.NewKeyed(1, flowSoakPlan().Rules...).CheckServed(c.hosts[0].Handles); err != nil {
		t.Error(err)
	}
}

// runFlowSoak executes one seeded schedule and returns (trace, resumes):
// the full event trace for replay comparison, and how many resume-from-
// checkpoint events the schedule provoked.
func runFlowSoak(t *testing.T, seed int64, cfg grid.Config) ([]string, int) {
	t.Helper()
	c := newCluster(t, flowSoakNodes, seed, cfg)
	defer c.e.Shutdown()
	client := c.nodes[flowSoakClient]
	client.StartClientMonitor(10 * time.Second)

	sched := faultinject.Generate(seed, flowSoakPlan())
	disarm := sched.Arm(c.e, c.net, flowSoakHarness{c}, func(i int) transport.Addr {
		return c.hosts[i].Addr()
	})
	defer disarm()

	var results map[string]flow.StageResult
	var err error
	c.do(flowSoakClient, func(rt transport.Runtime) {
		results, err = flow.Run(rt, client, flowSoakGraph(), flow.Options{
			Deadline: rt.Now() + 10*time.Minute,
		})
	})
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	if len(results) != 4 {
		t.Fatalf("seed %d: %d/4 stages", seed, len(results))
	}

	// Outputs must be the pure derivations even when a stage was
	// resumed on another node or resubmitted under a new GUID — the
	// proof that inherited input bytes survived recovery.
	addr := client.Addr()
	prepOut := grid.StageOutput(grid.Profile{Client: addr, Seq: 1, JobSpec: grid.JobSpec{OutputKB: 2}})
	mid1Out := grid.StageOutput(grid.Profile{Client: addr, Seq: 2, JobSpec: grid.JobSpec{OutputKB: 1, Input: prepOut}})
	mid2Out := grid.StageOutput(grid.Profile{Client: addr, Seq: 3, JobSpec: grid.JobSpec{OutputKB: 1, Input: prepOut}})
	for name, want := range map[string][]byte{"prep": prepOut, "mid1": mid1Out, "mid2": mid2Out} {
		if string(results[name].Output) != string(want) {
			t.Fatalf("seed %d: stage %s output diverged after recovery", seed, name)
		}
	}

	// Exactly once: one delivery per stage lineage, no double fires.
	col := metrics.NewCollector()
	c.rec.mu.Lock()
	for _, ev := range c.rec.evs {
		col.Record(ev)
	}
	c.rec.mu.Unlock()
	if err := col.Check(4); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return flowEventTrace(c.rec), col.Count(grid.EvResumed)
}

func flowEventTrace(rec *recorder) []string {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	trace := make([]string, len(rec.evs))
	for i, ev := range rec.evs {
		trace[i] = fmt.Sprintf("%v %s a%d %s @%v +%v d=%s r=%+.2f s%d",
			ev.Kind, ev.JobID.Short(), ev.Attempt, ev.Node, ev.At, ev.Progress, ev.Digest, ev.Delta, ev.Seq)
	}
	return trace
}

// TestFlowCrashSoak: many seeds, workflow-aware checkpointing on. At
// least one schedule across the set must have exercised the
// resume-from-shipped-checkpoint path (mid-DAG owner/run-node loss
// with progress recovered), or the soak is not probing what it claims.
func TestFlowCrashSoak(t *testing.T) {
	seeds := 30
	if testing.Short() {
		seeds = 10
	}
	totalResumes := 0
	for seed := int64(1); seed <= int64(seeds); seed++ {
		_, resumes := runFlowSoak(t, seed, flowSoakCfg(true))
		totalResumes += resumes
	}
	if totalResumes == 0 {
		t.Fatal("no schedule provoked a checkpoint resume; the soak is toothless")
	}
}

// TestFlowCrashSoakReplayDeterministic: the same seed must produce a
// byte-identical event trace on replay, with the workflow-aware policy
// both on and off — the determinism bar every subsystem holds.
func TestFlowCrashSoakReplayDeterministic(t *testing.T) {
	for _, aware := range []bool{false, true} {
		for seed := int64(1); seed <= 3; seed++ {
			a, _ := runFlowSoak(t, seed, flowSoakCfg(aware))
			b, _ := runFlowSoak(t, seed, flowSoakCfg(aware))
			if len(a) != len(b) {
				t.Fatalf("aware=%v seed %d: trace lengths %d vs %d", aware, seed, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("aware=%v seed %d: traces diverge at %d:\n  %s\n  %s", aware, seed, i, a[i], b[i])
				}
			}
		}
	}
}
