package experiments

import (
	"testing"
	"time"

	"repro/internal/chord"
	"repro/internal/faultinject"
	"repro/internal/grid"
	"repro/internal/workload"
)

func opts(seed int64) Options {
	return Options{Scale: 0.04, Seed: seed} // 40 nodes, 200 jobs
}

func TestBuildAndRunRNTree(t *testing.T) {
	wcfg := workload.NewConfig().Scale(0.03)
	res := Build(Scenario{Alg: AlgRNTree, Workload: wcfg, NetSeed: 1}).Run()
	if res.Delivered < res.Jobs*95/100 {
		t.Fatalf("delivered %d/%d", res.Delivered, res.Jobs)
	}
	if res.Wait.N == 0 || res.Wait.Mean < 0 {
		t.Fatalf("wait stats empty: %+v", res.Wait)
	}
	if res.MatchCost.Mean <= 0 {
		t.Fatalf("match cost not recorded: %+v", res.MatchCost)
	}
}

func TestBuildAndRunCAN(t *testing.T) {
	// Clustered populations: the quadrant where basic CAN behaves well.
	// (Mixed+lightly is its documented pathology — asserted separately
	// in TestFig2ShapesHold.)
	wcfg := workload.NewConfig().Scale(0.03)
	wcfg.NodePop = workload.Clustered
	wcfg.JobPop = workload.Clustered
	res := Build(Scenario{Alg: AlgCAN, Workload: wcfg, NetSeed: 2}).Run()
	if res.Delivered < res.Jobs*90/100 {
		t.Fatalf("delivered %d/%d", res.Delivered, res.Jobs)
	}
}

func TestBuildAndRunCentral(t *testing.T) {
	wcfg := workload.NewConfig().Scale(0.03)
	res := Build(Scenario{Alg: AlgCentral, Workload: wcfg, NetSeed: 3}).Run()
	if res.Delivered != res.Jobs {
		t.Fatalf("central delivered %d/%d", res.Delivered, res.Jobs)
	}
}

func TestBuildAndRunTTLAndRandom(t *testing.T) {
	wcfg := workload.NewConfig().Scale(0.02)
	for _, alg := range []Algorithm{AlgTTL, AlgRandom} {
		res := Build(Scenario{Alg: alg, Workload: wcfg, NetSeed: 4}).Run()
		if res.Delivered == 0 {
			t.Fatalf("%s delivered nothing", alg)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	wcfg := workload.NewConfig().Scale(0.02)
	run := func() Results {
		return Build(Scenario{Alg: AlgRNTree, Workload: wcfg, NetSeed: 9}).Run()
	}
	a, b := run(), run()
	if a.Wait.Mean != b.Wait.Mean || a.Messages != b.Messages || a.Delivered != b.Delivered {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestFig2ShapesHold(t *testing.T) {
	if testing.Short() {
		t.Skip("full-quadrant run")
	}
	rows, tbl := Fig2(workload.Mixed, opts(11))
	t.Log("\n" + tbl.Format())
	get := func(level workload.ConstraintLevel, alg Algorithm) Fig2Row {
		for _, r := range rows {
			if r.Level == level && r.Alg == alg {
				return r
			}
		}
		t.Fatalf("missing row %v/%v", level, alg)
		return Fig2Row{}
	}
	// The paper's headline pathology: basic CAN on mixed nodes with
	// lightly-constrained jobs is much worse than Centralized.
	canLight := get(workload.Lightly, AlgCAN)
	centralLight := get(workload.Lightly, AlgCentral)
	if canLight.WaitStd < 2*centralLight.WaitStd && canLight.WaitMean < 2*centralLight.WaitMean {
		t.Errorf("CAN pathology absent: can(avg %.1f std %.1f) vs central(avg %.1f std %.1f)",
			canLight.WaitMean, canLight.WaitStd, centralLight.WaitMean, centralLight.WaitStd)
	}
	// RN-Tree stays within a reasonable factor of Centralized.
	rnLight := get(workload.Lightly, AlgRNTree)
	if rnLight.WaitMean > 10*centralLight.WaitMean+60 {
		t.Errorf("RN-Tree far from central: %.1f vs %.1f", rnLight.WaitMean, centralLight.WaitMean)
	}
}

func TestRobustnessCompletesUnderChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("churn sweep")
	}
	tbl := Robustness([]float64{0.15}, opts(13))
	t.Log("\n" + tbl.Format())
	if len(tbl.Rows) != 1 {
		t.Fatal("row count")
	}
}

// TestChurnRingConvergesWhenQuiet runs Table 4's 30%-churn scenario at
// scale 0.02, then two quiet minutes (many full fix-fingers cycles),
// and requires the survivors to form a correct ring: successors,
// predecessors, successor lists and fingers.
func TestChurnRingConvergesWhenQuiet(t *testing.T) {
	o := Options{Scale: 0.02, Seed: 4}
	d := o.Build(churnScenario(0.30, o))
	defer d.Engine.Shutdown()
	d.drive()
	d.Engine.RunFor(2 * time.Minute)
	var live []*chord.Node
	for i, ch := range d.Chords {
		if d.Eps[i].Up() {
			live = append(live, ch)
		}
	}
	if len(live) == len(d.Chords) {
		t.Fatal("no node crashed: the scenario lost its churn")
	}
	if err := chord.CheckRing(live); err != nil {
		t.Fatalf("%d of %d nodes up: %v", len(live), len(d.Chords), err)
	}
}

func TestDHTBehaviorShapes(t *testing.T) {
	rows, tbl := DHTBehavior([]int{32, 128}, Options{Seed: 7})
	t.Log("\n" + tbl.Format())
	if len(rows) != 2 {
		t.Fatal("row count")
	}
	// Hops grow with N and track the analytic expectation loosely.
	if rows[1].ChordHops <= rows[0].ChordHops*0.8 {
		t.Errorf("chord hops did not grow: %+v", rows)
	}
	for _, r := range rows {
		if r.ChordHops > 3*r.ChordExp+2 {
			t.Errorf("chord hops %f far above expectation %f", r.ChordHops, r.ChordExp)
		}
		if r.CANHops > 4*r.CANExp+2 {
			t.Errorf("can hops %f far above expectation %f", r.CANHops, r.CANExp)
		}
	}
}

func TestParseAlgorithm(t *testing.T) {
	for i := 0; i < len(algNames); i++ {
		a, err := ParseAlgorithm(algNames[i])
		if err != nil || a != Algorithm(i) {
			t.Fatalf("ParseAlgorithm(%s) = %v, %v", algNames[i], a, err)
		}
	}
	if _, err := ParseAlgorithm("bogus"); err == nil {
		t.Fatal("bogus accepted")
	}
}

func TestTableFormat(t *testing.T) {
	tbl := &Table{
		Title:  "T",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"x", "y"}, {"longer", "z"}},
		Notes:  []string{"hello"},
	}
	out := tbl.Format()
	if len(out) == 0 || out[0] != 'T' {
		t.Fatalf("format: %q", out)
	}
	tbl.SortRows()
	if tbl.Rows[0][0] != "longer" {
		t.Fatalf("sort: %v", tbl.Rows)
	}
}

// TestScenarioDrainSlack: the drain slack past the last arrival (40x
// the mean runtime) is long enough for a central run to deliver every job.
func TestScenarioDrainSlack(t *testing.T) {
	wcfg := workload.NewConfig().Scale(0.02)
	res := Build(Scenario{Alg: AlgCentral, Workload: wcfg, NetSeed: 5}).Run()
	if res.Delivered != res.Jobs {
		t.Fatalf("delivered %d/%d", res.Delivered, res.Jobs)
	}
}

func TestFaultInjectionRecoveryDeterministic(t *testing.T) {
	// Failure-focused workload, same shaping as Robustness/FaultSweep:
	// few jobs, lightly loaded, mixed populations.
	wcfg := workload.NewConfig().Scale(0.03)
	wcfg.Jobs = wcfg.Jobs / 5
	wcfg.NodePop = workload.Mixed
	wcfg.JobPop = workload.Mixed
	wcfg.Level = workload.Lightly
	plan := &faultinject.Plan{
		Rules: []faultinject.Rule{
			{Method: grid.MHeartbeat, DropProb: 0.25},
			{Method: grid.MComplete, DropProb: 0.15, DupProb: 0.15},
			{Method: grid.MResult, DropProb: 0.15},
		},
		Crashes:         3,
		RestartProb:     0.5,
		RestartDelayMin: 20 * time.Second,
		RestartDelayMax: time.Minute,
		Partitions:      1,
		PartitionSize:   2,
		PartitionDurMin: 15 * time.Second,
		PartitionDurMax: 30 * time.Second,
	}
	run := func() Results {
		return Build(Scenario{
			Alg: AlgRNTree, Workload: wcfg, NetSeed: 11,
			Maintenance: true, Faults: plan, FaultSeed: 12,
		}).Run()
	}
	a := run()
	if a.Faulted == 0 {
		t.Fatal("fault injector never fired")
	}
	if a.Delivered < a.Jobs*9/10 {
		t.Fatalf("delivered %d/%d under faults", a.Delivered, a.Jobs)
	}
	// Same seeds, same schedule, same results — the replay guarantee at
	// the experiment level.
	if b := run(); a != b {
		t.Fatalf("fault-injected run not replayable:\n%+v\nvs\n%+v", a, b)
	}
}

// TestFaultRowsExactlyOnce runs the fault sweep's four levels at the
// replay guard's scale and seed, and its chaos level again with the
// benchmark's sim_chaos grid (owner replication, adaptive checkpoints,
// push notifications), through the exactly-once oracle.
func TestFaultRowsExactlyOnce(t *testing.T) {
	o := Options{Scale: 0.02, Seed: 4}
	var rows []Scenario
	for _, lvl := range faultLevels() {
		rows = append(rows, faultScenario(o, lvl.plan))
	}
	chaos := rows[len(rows)-1]
	chaos.Notify = true
	chaos.Grid = grid.Config{
		ReplicaK:           2,
		CheckpointEvery:    5 * time.Second,
		CheckpointAdaptive: true,
		CheckpointMinEvery: 2 * time.Second,
		CheckpointMaxEvery: 10 * time.Second,
	}
	for i, sc := range append(rows, chaos) {
		d := Build(sc)
		res := d.Run()
		if err := d.Collector.Check(res.Jobs); err != nil {
			t.Errorf("row %d: %v", i, err)
		}
	}
}

func TestCheckpointingReducesWaste(t *testing.T) {
	// Same crash-bearing schedule as the deterministic fault test; the
	// only variable is the checkpoint policy. Adaptive checkpointing
	// must cut re-executed work relative to restart-from-scratch, and
	// the checkpointed run must stay exactly as replayable.
	wcfg := workload.NewConfig().Scale(0.03)
	wcfg.Jobs = wcfg.Jobs / 5
	wcfg.NodePop = workload.Mixed
	wcfg.JobPop = workload.Mixed
	wcfg.Level = workload.Lightly
	plan := &faultinject.Plan{
		Rules: []faultinject.Rule{
			{Method: grid.MHeartbeat, DropProb: 0.25},
			{Method: grid.MComplete, DropProb: 0.15, DupProb: 0.15},
			{Method: grid.MResult, DropProb: 0.15},
		},
		Crashes:         3,
		RestartProb:     0.5,
		RestartDelayMin: 20 * time.Second,
		RestartDelayMax: time.Minute,
	}
	run := func(gcfg grid.Config) Results {
		return Build(Scenario{
			Alg: AlgRNTree, Workload: wcfg, Grid: gcfg, NetSeed: 11,
			Maintenance: true, Faults: plan, FaultSeed: 12,
		}).Run()
	}
	off := run(grid.Config{})
	adaptive := run(grid.Config{
		CheckpointEvery:    10 * time.Second,
		CheckpointAdaptive: true,
		CheckpointMinEvery: 2 * time.Second,
		CheckpointMaxEvery: 30 * time.Second,
	})
	if off.Checkpoints != 0 || off.Resumes != 0 {
		t.Fatalf("baseline took checkpoints: %+v", off)
	}
	if adaptive.Checkpoints == 0 {
		t.Fatal("adaptive policy never checkpointed")
	}
	if adaptive.Delivered < off.Delivered {
		t.Fatalf("checkpointing lost deliveries: %d vs %d", adaptive.Delivered, off.Delivered)
	}
	if off.ExecutedWork <= off.UsefulWork {
		t.Fatalf("crash schedule produced no waste to recover: %+v", off)
	}
	if adaptive.ReexecutedWork >= off.ReexecutedWork {
		t.Fatalf("adaptive checkpointing did not cut re-executed work: %v vs %v",
			adaptive.ReexecutedWork, off.ReexecutedWork)
	}
	// Checkpointed runs replay bit-for-bit too.
	if again := run(grid.Config{
		CheckpointEvery:    10 * time.Second,
		CheckpointAdaptive: true,
		CheckpointMinEvery: 2 * time.Second,
		CheckpointMaxEvery: 30 * time.Second,
	}); again != adaptive {
		t.Fatalf("checkpointed run not replayable:\n%+v\nvs\n%+v", again, adaptive)
	}
}

func TestSabotageRunDeterministic(t *testing.T) {
	// Redundant execution triples the load; shape the workload the way
	// trustsweep does so the run drains within the deadline.
	wcfg := workload.NewConfig().Scale(0.02)
	wcfg.Jobs /= 5
	wcfg.Level = workload.Lightly
	run := func() Results {
		return Build(Scenario{
			Alg:      AlgRNTree,
			Workload: wcfg,
			Grid:     grid.Config{Replicas: 3, Quorum: 2},
			Trust:    true,
			Sabotage: &faultinject.ByzPlan{Fraction: 0.25, WrongProb: 0.7, WithholdProb: 0.1},
			NetSeed:  11,
		}).Run()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("sabotage run nondeterministic:\n%+v\nvs\n%+v", a, b)
	}
	if a.Saboteurs == 0 || a.Votes == 0 || a.Accepted == 0 {
		t.Fatalf("sabotage machinery not exercised: %+v", a)
	}
}

// TestVotingStopsSabotage is the headline claim: at R=3/quorum=2 with
// trust enabled, the wrong-accept rate is zero under a quarter of the
// population sabotaging, while the unprotected R=1 baseline on the
// same seeds accepts wrong results.
func TestVotingStopsSabotage(t *testing.T) {
	wcfg := workload.NewConfig().Scale(0.02)
	wcfg.Jobs /= 5
	wcfg.Level = workload.Lightly
	byz := &faultinject.ByzPlan{Fraction: 0.25, WrongProb: 0.7, WithholdProb: 0.1}
	run := func(cfg grid.Config, tc bool) Results {
		return Build(Scenario{
			Alg: AlgRNTree, Workload: wcfg, Grid: cfg,
			Trust: tc, Sabotage: byz, NetSeed: 12,
		}).Run()
	}
	base := run(grid.Config{}, false)
	if base.WrongAccepted == 0 {
		t.Fatal("baseline accepted no wrong results; sabotage plan too weak to test voting")
	}
	voted := run(grid.Config{Replicas: 3, Quorum: 2}, true)
	if voted.WrongAccepted != 0 {
		t.Fatalf("voting accepted %d wrong results", voted.WrongAccepted)
	}
	if voted.Delivered < voted.Jobs*95/100 {
		t.Fatalf("voting delivered only %d/%d", voted.Delivered, voted.Jobs)
	}
}

// TestZeroConfigTraceUnchangedByVotingCode guards the R=1 default: with
// voting off, runs must be indistinguishable from a build that never
// heard of sabotage tolerance (no votes, no probes, no reputation).
func TestZeroConfigTraceUnchangedByVotingCode(t *testing.T) {
	wcfg := workload.NewConfig().Scale(0.02)
	res := Build(Scenario{Alg: AlgRNTree, Workload: wcfg, NetSeed: 13}).Run()
	if res.Votes != 0 || res.Accepted != 0 || res.Rejected != 0 ||
		res.QuorumFailed != 0 || res.Blacklists != 0 || res.Probes != 0 || res.Saboteurs != 0 {
		t.Fatalf("zero-config run shows voting activity: %+v", res)
	}
}

// TestNotifSweepCutsPolling pins the notification overlay's headline
// claim: on the same seeded crash/drop schedule, push mode cuts the
// client monitor's status-poll RPCs by at least 3x versus polling,
// without losing a single job or changing the resubmit count.
func TestNotifSweepCutsPolling(t *testing.T) {
	o := Options{Scale: 0.04, Seed: 7}
	for _, clients := range []int{4, 8} {
		poll := NotifRun(o, clients, false)
		push := NotifRun(o, clients, true)
		t.Logf("clients=%d poll: status=%d resubmits=%d; push: status=%d pubsub=%d notify=%d resubmits=%d",
			clients, poll.StatusRPCs, poll.Resubmits, push.StatusRPCs, push.PubsubMsgs, push.NotifyRecv, push.Resubmits)
		if poll.Delivered != poll.Jobs || push.Delivered != push.Jobs {
			t.Fatalf("clients=%d lost jobs: poll %d/%d push %d/%d",
				clients, poll.Delivered, poll.Jobs, push.Delivered, push.Jobs)
		}
		if poll.PubsubMsgs != 0 || poll.NotifyRecv != 0 {
			t.Fatalf("clients=%d poll mode leaked pubsub traffic: msgs=%d recv=%d",
				clients, poll.PubsubMsgs, poll.NotifyRecv)
		}
		if push.PubsubMsgs == 0 || push.NotifyRecv == 0 {
			t.Fatalf("clients=%d push mode pushed nothing: msgs=%d recv=%d",
				clients, push.PubsubMsgs, push.NotifyRecv)
		}
		if push.StatusRPCs*3 > poll.StatusRPCs {
			t.Fatalf("clients=%d push did not cut polling 3x: poll=%d push=%d",
				clients, poll.StatusRPCs, push.StatusRPCs)
		}
	}
}
