package experiments

import (
	"testing"
	"time"
)

// TestFlowSweepAwareCutsCriticalPathReexec pins the flow sweep's
// headline claim: summed over the sweep's topologies and seeded crash
// schedules, the workflow-aware policy re-executes strictly less
// critical-path work than plain adaptive checkpointing — on identical
// schedules, since the policy is the only variable per (topology,
// seed) pair. Six schedules per topology, twice the sweep's smoke
// count: three leave a handful of resumes or none, too few to tell the
// policies apart.
func TestFlowSweepAwareCutsCriticalPathReexec(t *testing.T) {
	o := Options{Scale: 0.05, Seed: 1}
	var adaptiveCP, awareCP time.Duration
	awareCkpts, awareResumes := 0, 0
	for _, topoName := range []string{"diamond", "wide", "deep"} {
		for r := 0; r < 2*flowRepeats(o); r++ {
			seed := o.Seed + 120 + int64(r)*7
			run := func(polName string) FlowStats {
				topo, pol, err := FlowCell(topoName, polName)
				if err != nil {
					t.Fatal(err)
				}
				st, err := FlowRun(o, topo, pol, seed)
				if err != nil {
					t.Fatalf("%s/%s seed %d: %v", topoName, polName, seed, err)
				}
				if st.Delivered != st.Stages {
					t.Fatalf("%s/%s seed %d: %d/%d stages delivered",
						topoName, polName, seed, st.Delivered, st.Stages)
				}
				return st
			}
			a := run("adaptive")
			w := run("workflow-aware")
			adaptiveCP += a.CritReexecWork
			awareCP += w.CritReexecWork
			awareCkpts += w.Checkpoints
			awareResumes += w.Resumes
			if w.Checkpoints < a.Checkpoints {
				t.Fatalf("%s seed %d: aware checkpointed less than adaptive (%d vs %d)",
					topoName, seed, w.Checkpoints, a.Checkpoints)
			}
		}
	}
	t.Logf("cp-re-exec: adaptive=%v aware=%v (ckpts=%d resumes=%d)",
		adaptiveCP, awareCP, awareCkpts, awareResumes)
	if awareCkpts == 0 || awareResumes == 0 {
		t.Fatalf("aware policy never checkpointed/resumed (ckpts=%d resumes=%d); schedule too gentle to measure",
			awareCkpts, awareResumes)
	}
	if awareCP >= adaptiveCP {
		t.Fatalf("workflow-aware did not cut critical-path re-exec: %v vs adaptive %v", awareCP, adaptiveCP)
	}
}

// TestFlowRunReplayDeterministic: a flow-sweep cell is a seeded
// simulation like any other — the same (topology, policy, seed) must
// reproduce the identical stats, field for field.
func TestFlowRunReplayDeterministic(t *testing.T) {
	o := Options{Scale: 0.05, Seed: 1}
	topo, pol, err := FlowCell("diamond", "workflow-aware")
	if err != nil {
		t.Fatal(err)
	}
	a, err := FlowRun(o, topo, pol, 121)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FlowRun(o, topo, pol, 121)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("flow run not replayable:\n%+v\nvs\n%+v", a, b)
	}
}
