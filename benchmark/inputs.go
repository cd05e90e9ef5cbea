package main

import (
	"repro/internal/resource"
	"repro/internal/workload"
)

// subSeed derives an independent seed for the i-th input set of a run,
// so every input of a run is a pure function of --seed.
func subSeed(seed int64, i int) int64 {
	return seed*1_000_003 + int64(i)*7919 + 1
}

// mixedLightly is the paper's "mixed nodes, lightly-constrained jobs"
// quadrant at the given size, with the paper's offered load (about one)
// kept by spacing arrivals at meanRuntime/nodes.
func mixedLightly(seed int64, nodes, jobs int, cfg workload.Config) workload.Config {
	cfg.Seed = seed
	cfg.Nodes, cfg.Jobs = nodes, jobs
	cfg.NodePop, cfg.JobPop, cfg.Level = workload.Mixed, workload.Mixed, workload.Lightly
	return cfg
}

// relaxScarce strips the constraints of any job fewer than minCapable
// nodes can run, and reports how many it touched. workload.Generate
// anchors every job at one node, so a job can be born with a single
// capable node; under the chaos plan that node may crash for good, and
// the job is then unmatchable for the rest of the run. A failed match
// or a MatchRetryEvery tail in the results must be the grid's doing,
// never the generator's.
func relaxScarce(w *workload.Workload, minCapable int) int {
	relaxed := 0
	for i := range w.Jobs {
		if w.SatisfiableBy(w.Jobs[i]) < minCapable {
			w.Jobs[i].Cons = resource.Unconstrained
			relaxed++
		}
	}
	return relaxed
}
