package experiments

import (
	"fmt"
	"time"

	"repro/internal/faultinject"
	"repro/internal/grid"
	"repro/internal/workload"
)

// faultLevel is one severity step of the sweep.
type faultLevel struct {
	name string
	plan *faultinject.Plan // nil = clean baseline
}

func faultLevels() []faultLevel {
	// Message-fault rules shared by the lossy levels: the grid's own
	// control traffic is hit hardest, exactly the messages whose loss
	// the recovery protocol must tolerate.
	lossy := []faultinject.Rule{
		{Method: grid.MHeartbeat, DropProb: 0.25},
		{Method: grid.MComplete, DropProb: 0.15},
		{Method: grid.MResult, DropProb: 0.15},
	}
	dupes := append([]faultinject.Rule{
		{Method: grid.MAssign, DupProb: 0.2},
		{Method: grid.MAdopt, DupProb: 0.2},
	}, lossy...)
	// The catch-all delay rule must come last: the injector's first
	// matching rule wins, and a leading Method:"" rule would shadow the
	// per-method drop/dup rules for every message.
	chaos := append(append([]faultinject.Rule{}, dupes...),
		faultinject.Rule{DelayProb: 0.2, DelayMin: 100 * time.Millisecond, DelayMax: time.Second})
	return []faultLevel{
		{name: "none", plan: nil},
		{name: "drops", plan: &faultinject.Plan{Rules: lossy}},
		{name: "drops+dups", plan: &faultinject.Plan{Rules: dupes}},
		{name: "chaos", plan: &faultinject.Plan{
			Rules:           chaos,
			Crashes:         4,
			RestartProb:     0.5,
			RestartDelayMin: 20 * time.Second,
			RestartDelayMax: time.Minute,
			Partitions:      1,
			PartitionSize:   2,
			PartitionDurMin: 15 * time.Second,
			PartitionDurMax: 45 * time.Second,
		}},
	}
}

// FaultSweep measures recovery behaviour as injected-fault severity
// rises, on the paper's RN-Tree configuration with maintenance on:
// message loss alone, loss plus duplicated control messages, and full
// chaos (extra delays, node crashes with restarts, and a partition).
// Every schedule derives from the run seed, so any row is replayable
// bit-for-bit by rerunning with the same options.
func FaultSweep(o Options) *Table {
	tbl := &Table{
		Title:  "Fault sweep: recovery under seeded fault injection (RN-Tree, maintenance on)",
		Header: []string{"faults", "delivered", "dup-starts", "run-failures", "owner-failures", "adoptions", "resubmits", "gave-up", "injected", "lost-work", "re-exec-work", "avg-turnaround"},
		Notes: []string{
			"schedules are seeded: identical options reproduce identical rows",
			"lost-work: seconds of nominal work executed but absent from any delivered result (failures + duplicates)",
			"re-exec-work: the share of lost-work spent on jobs that were eventually delivered (recovery re-runs)",
		},
	}
	for _, lvl := range faultLevels() {
		o.logf("faultsweep level=%s", lvl.name)
		res := o.Build(faultScenario(o, lvl.plan)).Run()
		tbl.Rows = append(tbl.Rows, []string{
			lvl.name,
			fmt.Sprintf("%d/%d", res.Delivered, res.Jobs),
			fmt.Sprint(res.DupStarts),
			fmt.Sprint(res.RunFailures), fmt.Sprint(res.OwnerFailures),
			fmt.Sprint(res.Adoptions), fmt.Sprint(res.Resubmits),
			fmt.Sprint(res.GaveUp),
			fmt.Sprint(res.Faulted),
			fmtF(res.WastedWork.Seconds()),
			fmtF(res.ReexecutedWork.Seconds()),
			fmtF(res.Turnaround.Mean),
		})
	}
	return tbl
}

// faultScenario is one fault sweep row's scenario under plan.
func faultScenario(o Options, plan *faultinject.Plan) Scenario {
	wcfg := o.base()
	wcfg.Jobs = wcfg.Jobs / 5
	wcfg.NodePop = workload.Mixed
	wcfg.JobPop = workload.Mixed
	wcfg.Level = workload.Lightly
	return Scenario{
		Alg:         AlgRNTree,
		Workload:    wcfg,
		NetSeed:     o.Seed + 90,
		Maintenance: true,
		Faults:      plan,
		FaultSeed:   o.Seed + 91,
	}
}
