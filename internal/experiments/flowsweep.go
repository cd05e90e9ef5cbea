package experiments

import (
	"fmt"
	"time"

	"repro/internal/faultinject"
	"repro/internal/flow"
	"repro/internal/grid"
	"repro/internal/ids"
	"repro/internal/transport"
)

// The flow sweep measures what workflow awareness buys on top of
// adaptive checkpointing (DESIGN.md §15). A DAG concentrates risk on
// its critical path: losing progress on a stage that feeds the rest of
// the graph delays every descendant, while the same loss on a sink
// delays only itself. The workflow-aware policy tightens snapshot
// intervals by sqrt(bias) on exactly those upstream stages, so the
// comparison that matters is critical-path re-executed work between
// "adaptive" and "workflow-aware" under the identical seeded crash
// schedule — the schedules are pregenerated from (seed, plan), so the
// policy cannot perturb when crashes land.

// flowTopo is one DAG shape under test.
type flowTopo struct {
	name  string
	graph func() flow.Graph
}

func flowTopos() []flowTopo {
	return []flowTopo{
		// Fan-out/fan-in: one source feeds two branches that merge.
		{name: "diamond", graph: func() flow.Graph {
			return flow.Graph{Name: "diamond", Stages: []flow.Stage{
				{Name: "prep", Spec: grid.JobSpec{Work: 15 * time.Second, OutputKB: 2}},
				{Name: "left", Spec: grid.JobSpec{Work: 25 * time.Second, OutputKB: 1}, After: []string{"prep"}},
				{Name: "right", Spec: grid.JobSpec{Work: 20 * time.Second, OutputKB: 1}, After: []string{"prep"}},
				{Name: "merge", Spec: grid.JobSpec{Work: 12 * time.Second}, After: []string{"left", "right"}},
			}}
		}},
		// Wide fan-out: one source feeds five independent workers whose
		// results a sink collects; the source's bias is the largest here.
		{name: "wide", graph: func() flow.Graph {
			stages := []flow.Stage{
				{Name: "src", Spec: grid.JobSpec{Work: 15 * time.Second, OutputKB: 2}},
			}
			var workers []string
			for i := 0; i < 5; i++ {
				name := fmt.Sprintf("w%d", i)
				workers = append(workers, name)
				stages = append(stages, flow.Stage{
					Name:  name,
					Spec:  grid.JobSpec{Work: time.Duration(12+2*i) * time.Second, OutputKB: 1},
					After: []string{"src"},
				})
			}
			stages = append(stages, flow.Stage{
				Name: "sink", Spec: grid.JobSpec{Work: 10 * time.Second}, After: workers,
			})
			return flow.Graph{Name: "wide", Stages: stages}
		}},
		// Deep chain: every stage is on the critical path, with bias
		// decaying toward the tail.
		{name: "deep", graph: func() flow.Graph {
			var stages []flow.Stage
			for i := 0; i < 6; i++ {
				s := flow.Stage{
					Name: fmt.Sprintf("s%d", i),
					Spec: grid.JobSpec{Work: 12 * time.Second, OutputKB: 1},
				}
				if i > 0 {
					s.After = []string{fmt.Sprintf("s%d", i-1)}
				}
				if i == 5 {
					s.Spec.OutputKB = 0
				}
				stages = append(stages, s)
			}
			return flow.Graph{Name: "deep", Stages: stages}
		}},
	}
}

// flowGridCfg is the shared grid tuning: tight failure detection so the
// seeded crashes are noticed mid-stage, and the notification overlay's
// silence window so completions are pushed, not polled.
func flowGridCfg() grid.Config {
	return grid.Config{
		HeartbeatEvery:  time.Second,
		RunDeadAfter:    5 * time.Second,
		OwnerDeadAfter:  5 * time.Second,
		MatchRetryEvery: 2 * time.Second,
		MaxRematch:      8,
		NotifySilence:   10 * time.Second,
	}
}

// flowPolicies are the four checkpoint policies compared per topology.
func flowPolicies() []ckptPolicy {
	off := flowGridCfg()
	fixed := flowGridCfg()
	fixed.CheckpointEvery = 5 * time.Second
	adaptive := flowGridCfg()
	adaptive.CheckpointEvery = 5 * time.Second
	adaptive.CheckpointAdaptive = true
	adaptive.CheckpointMinEvery = 2 * time.Second
	adaptive.CheckpointMaxEvery = 20 * time.Second
	aware := adaptive
	aware.CheckpointWorkflowAware = true
	return []ckptPolicy{
		{name: "off", cfg: off},
		{name: "fixed-5s", cfg: fixed},
		{name: "adaptive", cfg: adaptive},
		{name: "workflow-aware", cfg: aware},
	}
}

// flowFaultPlan is the crash schedule every policy replays: run-node
// and owner crashes landing inside the DAG's execution window, a
// little control-plane loss, and a light tail of random delays. The
// loss rates stay low on purpose: false run-death rematch produces
// duplicate full executions no snapshot policy can recover, and too
// much of that noise would bury the crash-loss signal the sweep is
// measuring.
func flowFaultPlan() faultinject.Plan {
	return faultinject.Plan{
		Window:          2 * time.Minute,
		Crashes:         5,
		RestartProb:     0.8,
		RestartDelayMin: 5 * time.Second,
		RestartDelayMax: 12 * time.Second,
		Rules: []faultinject.Rule{
			{Method: grid.MHeartbeat, DropProb: 0.1},
			{Method: grid.MComplete, DropProb: 0.1, DupProb: 0.1},
			{Method: grid.MResult, DropProb: 0.1, DupProb: 0.1},
			{DelayProb: 0.1, DelayMin: 50 * time.Millisecond, DelayMax: 500 * time.Millisecond},
		},
	}
}

// FlowStats aggregates one DAG run. All fields are scalars so tests can
// compare whole runs for replay identity.
type FlowStats struct {
	Stages      int
	Delivered   int
	Makespan    time.Duration // flow start to last stage delivery
	Checkpoints int
	Resumes     int
	Resubmits   int
	// ReexecWork is executed work beyond each stage's nominal Work,
	// summed over all attempts of all stages (the recovery re-run
	// overhead); CritReexecWork is its share on critical-path stages.
	ReexecWork     time.Duration
	CritReexecWork time.Duration
}

// flowMaxAttempts bounds the per-stage GUID scan when tallying executed
// work across resubmissions; the monitor never gets anywhere near it.
const flowMaxAttempts = 64

// FlowRun executes one cell of the flow sweep: the named topology on a
// small central-matchmade grid with the notification overlay wired,
// under the seeded crash schedule, with one checkpoint policy. The
// seed fixes both the network timeline and the fault schedule, so runs
// differing only in policy face the identical failure sequence.
// Exposed so tests can assert on raw stats rather than re-parse the
// table.
func FlowRun(o Options, topo flowTopo, pol ckptPolicy, seed int64) (FlowStats, error) {
	wcfg := o.base()
	wcfg.Nodes = 16
	wcfg.Jobs = 1 // generated but never submitted; the flow engine drives
	wcfg.Clients = 1
	d := o.Build(Scenario{
		Alg:      AlgCentral,
		Workload: wcfg,
		Grid:     pol.cfg,
		NetSeed:  seed,
		Notify:   true,
	})
	defer d.Engine.Shutdown()

	ci := d.clients[0]
	client := d.Grids[ci]
	client.StartClientMonitor(10 * time.Second)

	g := topo.graph()
	plan, err := g.Validate()
	if err != nil {
		return FlowStats{}, err
	}

	fplan := flowFaultPlan()
	fplan.Nodes = len(d.Grids)
	fplan.Protect = []int{ci}
	sched := faultinject.Generate(seed, fplan)
	disarm := sched.Arm(d.Engine, d.Net, d, func(i int) transport.Addr {
		return d.Hosts[i].Addr()
	})
	defer disarm()

	var results map[string]flow.StageResult
	var ferr error
	started := time.Duration(d.Engine.Now())
	done := false
	d.Hosts[ci].Go("flow.run", func(rt transport.Runtime) {
		defer func() { done = true }()
		results, ferr = flow.RunPlan(rt, client, plan, flow.Options{
			Deadline: rt.Now() + 30*time.Minute,
			Notify:   d.Brokers[ci],
		})
	})
	for !done {
		d.Engine.RunFor(5 * time.Second)
	}
	if ferr != nil {
		return FlowStats{}, fmt.Errorf("flow %s/%s seed %d: %w", topo.name, pol.name, seed, ferr)
	}

	st := FlowStats{
		Stages:      len(plan.Order),
		Delivered:   len(results),
		Checkpoints: d.Collector.Count(grid.EvCheckpointed),
		Resumes:     d.Collector.Count(grid.EvResumed),
		Resubmits:   d.Collector.Count(grid.EvResubmitted),
	}
	for _, sr := range results {
		if end := sr.Finished - started; end > st.Makespan {
			st.Makespan = end
		}
	}

	// Re-executed work per stage: everything run nodes computed for any
	// attempt of the stage's lineage, beyond its nominal Work. Stage
	// lineages are scanned by GUID — stable accounting even after the
	// monitor re-keyed an attempt.
	perJob := make(map[ids.ID]time.Duration)
	for _, gn := range d.Grids {
		for id, w := range gn.ExecutedByJob() {
			perJob[id] += w
		}
	}
	onCP := make(map[string]bool, len(plan.CriticalPath))
	for _, name := range plan.CriticalPath {
		onCP[name] = true
	}
	byName := make(map[string]flow.Stage, len(g.Stages))
	for _, s := range g.Stages {
		byName[s.Name] = s
	}
	addr := client.Addr()
	for name, sr := range results {
		var executed time.Duration
		for k := 0; k < flowMaxAttempts; k++ {
			executed += perJob[grid.JobGUID(addr, sr.Seq, k)]
		}
		if extra := executed - byName[name].Spec.Work; extra > 0 {
			st.ReexecWork += extra
			if onCP[name] {
				st.CritReexecWork += extra
			}
		}
	}
	return st, nil
}

// flowRepeats picks how many seeded schedules each cell averages over.
func flowRepeats(o Options) int {
	if o.Scale >= 0.5 {
		return 12
	}
	return 3
}

// FlowSweep compares checkpoint policies on whole DAGs: three
// topologies x four policies, each cell summed over the same seeded
// crash schedules. The claim pinned by CI: workflow-aware biasing cuts
// critical-path re-executed work versus plain adaptive on the
// identical schedules.
func FlowSweep(o Options) *Table {
	tbl := &Table{
		Title:  "Flow sweep: DAG makespan and re-executed work by checkpoint policy (central matchmaker, notification overlay, seeded crash schedules)",
		Header: []string{"topology", "policy", "delivered", "makespan", "ckpts", "resumes", "resubmits", "re-exec-work", "cp-re-exec"},
		Notes: []string{
			"each cell sums the same seeded crash schedules; makespan is the mean across them",
			"re-exec-work: seconds executed beyond each stage's nominal work, over all attempts",
			"cp-re-exec: the share of re-exec-work on critical-path stages — what workflow-aware biasing targets",
		},
	}
	repeats := flowRepeats(o)
	for _, topo := range flowTopos() {
		for _, pol := range flowPolicies() {
			o.logf("flowsweep topo=%s policy=%s", topo.name, pol.name)
			var agg FlowStats
			var makespans time.Duration
			stages, delivered := 0, 0
			for r := 0; r < repeats; r++ {
				st, err := FlowRun(o, topo, pol, o.Seed+120+int64(r)*7)
				if err != nil {
					tbl.Rows = append(tbl.Rows, []string{topo.name, pol.name, "ERR: " + err.Error(), "", "", "", "", "", ""})
					continue
				}
				stages += st.Stages
				delivered += st.Delivered
				makespans += st.Makespan
				agg.Checkpoints += st.Checkpoints
				agg.Resumes += st.Resumes
				agg.Resubmits += st.Resubmits
				agg.ReexecWork += st.ReexecWork
				agg.CritReexecWork += st.CritReexecWork
			}
			tbl.Rows = append(tbl.Rows, []string{
				topo.name, pol.name,
				fmt.Sprintf("%d/%d", delivered, stages),
				fmt.Sprintf("%.1fs", (makespans / time.Duration(repeats)).Seconds()),
				fmt.Sprint(agg.Checkpoints), fmt.Sprint(agg.Resumes), fmt.Sprint(agg.Resubmits),
				fmtF(agg.ReexecWork.Seconds()),
				fmtF(agg.CritReexecWork.Seconds()),
			})
		}
	}
	return tbl
}

// FlowCell resolves a (topology, policy) pair by name for tests and
// external drivers.
func FlowCell(topoName, polName string) (flowTopo, ckptPolicy, error) {
	var topo flowTopo
	var pol ckptPolicy
	found := false
	for _, t := range flowTopos() {
		if t.name == topoName {
			topo, found = t, true
		}
	}
	if !found {
		return topo, pol, fmt.Errorf("flowsweep: unknown topology %q", topoName)
	}
	found = false
	for _, p := range flowPolicies() {
		if p.name == polName {
			pol, found = p, true
		}
	}
	if !found {
		return topo, pol, fmt.Errorf("flowsweep: unknown policy %q", polName)
	}
	return topo, pol, nil
}
