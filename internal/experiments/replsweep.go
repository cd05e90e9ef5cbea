package experiments

import (
	"fmt"
	"time"

	"repro/internal/faultinject"
	"repro/internal/grid"
	"repro/internal/workload"
)

// replPlan is the double-failure schedule the replication subsystem
// exists for: correlated pair crashes, both victims dying at the same
// instant, over lossy control traffic. Crash-stop on purpose — a
// restarted node that reclaims its ring arc with wiped state forces a
// (safe) resubmission no replication degree can remove (DESIGN.md
// §10), which would drown the signal this sweep measures.
func replPlan() *faultinject.Plan {
	return &faultinject.Plan{
		PairCrashes: 5,
		Rules: []faultinject.Rule{
			{Method: grid.MHeartbeat, DropProb: 0.1},
			{DelayProb: 0.1, DelayMin: 50 * time.Millisecond, DelayMax: 500 * time.Millisecond},
		},
	}
}

// ReplSweep measures what owner-state replication (DESIGN.md §10) buys
// as the replication degree k rises, under seeded schedules of
// correlated owner+run double crashes. k=0 is the paper's baseline,
// where the only recovery from a double failure is the client noticing
// and resubmitting; at k>=1 a successor holding the replicated owner
// record promotes itself instead. The interesting columns are
// resubmit-rate (client-visible recovery, which replication should
// drive toward zero) and lost-work (the restart-from-scratch cost a
// promotion avoids by reattaching or rematching with the replicated
// checkpoint).
func ReplSweep(o Options) *Table {
	// A message's fault is drawn from its key and the key's seq, and
	// replication changes which messages are sent, so two runs
	// differing only in k see different per-message noise even under
	// the same crash schedule; averaging a few seeded schedules per row
	// keeps one lucky (or unlucky) schedule from dominating a row.
	const repeats = 3
	tbl := &Table{
		Title:  "Replication sweep: owner-state replication degree under correlated owner+run crashes (RN-Tree, maintenance on)",
		Header: []string{"k", "delivered", "resubmits", "resubmit-rate", "adoptions", "promotions", "handoffs", "restores", "demotions", "lost-work", "re-exec-work", "avg-turnaround"},
		Notes: []string{
			"schedules are seeded: identical options reproduce identical rows",
			fmt.Sprintf("each row averages %d seeded double-crash schedules on the same topology", repeats),
			"resubmit-rate: client resubmissions per submitted job (the double-failure recovery replication replaces)",
		},
	}
	for _, k := range []int{0, 1, 2, 3} {
		wcfg := o.base()
		wcfg.Jobs = wcfg.Jobs / 5
		wcfg.NodePop = workload.Mixed
		wcfg.JobPop = workload.Mixed
		wcfg.Level = workload.Lightly
		var delivered, jobs, resubmits, adoptions, promotions, handoffs, restores, demotions int
		var lost, reexec, turn float64
		for r := 0; r < repeats; r++ {
			o.logf("replsweep k=%d schedule %d/%d", k, r+1, repeats)
			res := o.Build(Scenario{
				Alg:         AlgRNTree,
				Workload:    wcfg,
				Grid:        grid.Config{ReplicaK: k},
				NetSeed:     o.Seed + 95,
				Maintenance: true,
				Faults:      replPlan(),
				FaultSeed:   o.Seed + 96 + 1000*int64(r),
			}).Run()
			delivered += res.Delivered
			jobs += res.Jobs
			resubmits += res.Resubmits
			adoptions += res.Adoptions
			promotions += res.Promotions
			handoffs += res.Handoffs
			restores += res.Restores
			demotions += res.Demotions
			lost += res.WastedWork.Seconds()
			reexec += res.ReexecutedWork.Seconds()
			turn += res.Turnaround.Mean
		}
		rf := float64(repeats)
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprint(k),
			fmt.Sprintf("%d/%d", delivered, jobs),
			fmt.Sprintf("%.1f", float64(resubmits)/rf),
			fmt.Sprintf("%.3f", float64(resubmits)/float64(jobs)),
			fmt.Sprintf("%.1f", float64(adoptions)/rf),
			fmt.Sprintf("%.1f", float64(promotions)/rf),
			fmt.Sprintf("%.1f", float64(handoffs)/rf),
			fmt.Sprintf("%.1f", float64(restores)/rf),
			fmt.Sprintf("%.1f", float64(demotions)/rf),
			fmtF(lost / rf),
			fmtF(reexec / rf),
			fmtF(turn / rf),
		})
	}
	return tbl
}
