package experiments

import (
	"fmt"
	"time"

	"repro/internal/faultinject"
	"repro/internal/grid"
	"repro/internal/workload"
)

// trustPolicy is one sabotage-tolerance configuration of the sweep.
type trustPolicy struct {
	name     string
	replicas int
	quorum   int
	trust    bool
	probes   bool
}

func trustPolicies() []trustPolicy {
	return []trustPolicy{
		// The paper's protocol: single execution, first answer accepted.
		{name: "r1", replicas: 1, quorum: 1},
		// Minimal redundancy: two replicas must agree.
		{name: "r2-q2", replicas: 2, quorum: 2, trust: true},
		// The headline configuration: majority of three, reputation
		// feedback, and probe-based spot checks of blacklisted peers.
		{name: "r3-q2", replicas: 3, quorum: 2, trust: true, probes: true},
	}
}

// TrustSweep measures sabotage tolerance: for each redundancy/quorum
// policy and each saboteur fraction, how many wrong results the clients
// accept, what the redundancy costs in wasted work, and what voting
// adds to wait time. Saboteur selection and per-job corruption draws
// all derive from the run seed.
func TrustSweep(o Options) *Table {
	tbl := &Table{
		Title:  "Trust sweep: redundant execution + quorum voting under Byzantine saboteurs (RN-Tree, maintenance on)",
		Header: []string{"policy", "saboteurs", "delivered", "wrong-accepted", "votes", "rejected", "quorum-failed", "blacklists", "probes", "redundant-work", "avg-wait", "avg-turnaround"},
		Notes: []string{
			"saboteurs corrupt result digests with p=0.7 and withhold results with p=0.1, per (job, attempt)",
			"wrong-accepted: delivered results whose digest differs from the honest expectation",
			"redundant-work: seconds of nominal work executed beyond the delivered jobs' own work (replicas + recovery)",
			"r1 = the paper's single-execution protocol (no voting, no reputation)",
		},
	}
	for _, pol := range trustPolicies() {
		for _, frac := range []float64{0, 0.10, 0.30} {
			wcfg := o.base()
			wcfg.Jobs = wcfg.Jobs / 5
			wcfg.NodePop = workload.Mixed
			wcfg.JobPop = workload.Mixed
			wcfg.Level = workload.Lightly
			o.logf("trustsweep policy=%s saboteurs=%.0f%%", pol.name, frac*100)
			gcfg := grid.Config{Replicas: pol.replicas, Quorum: pol.quorum}
			s := Scenario{
				Alg:          AlgRNTree,
				Workload:     wcfg,
				Grid:         gcfg,
				NetSeed:      o.Seed + 95,
				Maintenance:  true,
				SabotageSeed: o.Seed + 96,
				Trust:        pol.trust,
			}
			if pol.probes {
				s.Grid.ProbeEvery = 30 * time.Second
			}
			if frac > 0 {
				s.Sabotage = &faultinject.ByzPlan{Fraction: frac, WrongProb: 0.7, WithholdProb: 0.1}
			}
			res := o.Build(s).Run()
			redundant := res.ExecutedWork - res.UsefulWork
			if redundant < 0 {
				redundant = 0
			}
			tbl.Rows = append(tbl.Rows, []string{
				pol.name,
				fmt.Sprintf("%d (%.0f%%)", res.Saboteurs, frac*100),
				fmt.Sprintf("%d/%d", res.Delivered, res.Jobs),
				fmt.Sprint(res.WrongAccepted),
				fmt.Sprint(res.Votes),
				fmt.Sprint(res.Rejected),
				fmt.Sprint(res.QuorumFailed),
				fmt.Sprint(res.Blacklists),
				fmt.Sprint(res.Probes),
				fmtF(redundant.Seconds()),
				fmtF(res.Wait.Mean),
				fmtF(res.Turnaround.Mean),
			})
		}
	}
	return tbl
}
