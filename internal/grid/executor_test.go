package grid_test

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/grid"
	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// onlyNode matches every job to one run node.
type onlyNode struct{ addr transport.Addr }

func (m onlyNode) FindRunNodes(_ transport.Runtime, reqs []grid.MatchReq) []grid.MatchResult {
	results := make([]grid.MatchResult, len(reqs))
	for i, r := range reqs {
		results[i].Run = m.addr
		if slices.Contains(r.Exclude, m.addr) {
			results[i] = grid.MatchResult{Err: fmt.Errorf("onlyNode: %s excluded", m.addr)}
		}
	}
	return results
}

// oneRunNode builds a two-node cluster: n000 is client and owner, n001
// the only run node. A long RunDeadAfter keeps the owner from
// rematching a job whose result is still in retries.
func oneRunNode(t *testing.T) *cluster {
	cfg := grid.Config{RunDeadAfter: time.Minute}
	return newClusterPrep(t, 2, 7, func(int) grid.Config { return cfg }, uniform,
		func(int, *simnet.Endpoint, *grid.Config) grid.Matchmaker { return onlyNode{"n001"} })
}

// TestExecutorNeverWaitsOnDelivery queues three jobs on one run node
// and slows or loses every grid.result to the client. Delivery and
// completion run beside the next job, so each job must start at the
// instant the previous one finished, and every job must still be
// delivered exactly once — directly when the result is late, through
// the owner's relay when direct delivery runs out of retries.
func TestExecutorNeverWaitsOnDelivery(t *testing.T) {
	for _, tc := range []struct {
		name    string
		rule    faultinject.Rule
		relayed int // results the owner relays after direct delivery gave up
	}{
		{"delayed", faultinject.Rule{Method: grid.MResult, Requests: true, DelayProb: 1, DelayMin: 2 * time.Second, DelayMax: 2 * time.Second}, 0},
		{"dropped", faultinject.Rule{Method: grid.MResult, Requests: true, DropProb: 1}, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := oneRunNode(t)
			defer c.e.Shutdown()
			// Faults stop at 12 s: by then every direct try has gone out
			// (three per job, one call timeout plus one second apart), so
			// only the owner's relays, which also travel as grid.result,
			// get through.
			sched := faultinject.Schedule{Rules: []faultinject.Rule{tc.rule}, RuleWindow: 12 * time.Second}
			defer sched.Arm(c.e, c.net, nil, nil)()

			var jobs []ids.ID
			c.do(0, func(rt transport.Runtime) {
				for i := 0; i < 3; i++ {
					id, err := c.nodes[0].Submit(rt, grid.JobSpec{Work: time.Second})
					if err != nil {
						t.Fatalf("submit %d: %v", i, err)
					}
					jobs = append(jobs, id)
				}
				if left := c.nodes[0].AwaitAll(rt, rt.Now()+5*time.Minute); left != 0 {
					t.Fatalf("%d jobs unfinished", left)
				}
			})

			finished := map[ids.ID]time.Duration{}
			for _, id := range jobs {
				seq, _ := c.nodes[0].SeqFor(id)
				st, _ := c.nodes[0].StatusBySeq(seq)
				finished[id] = st.Res.Finished
			}
			var starts []grid.Event
			relayed := 0
			col := metrics.NewCollector()
			c.rec.mu.Lock()
			defer c.rec.mu.Unlock()
			for _, ev := range c.rec.evs {
				col.Record(ev)
				switch ev.Kind {
				case grid.EvStarted:
					starts = append(starts, ev)
				case grid.EvResultDelivered:
					// A relayed result lands after its direct retries
					// ran out, well past the job's own finish.
					if ev.At-finished[ev.JobID] > 5*time.Second {
						relayed++
					}
				}
			}
			if err := col.Check(len(jobs)); err != nil {
				t.Error(err)
			}
			if len(starts) != len(jobs) {
				t.Fatalf("%d starts for %d jobs", len(starts), len(jobs))
			}
			for i := 1; i < len(starts); i++ {
				prev, cur := starts[i-1], starts[i]
				if cur.At != finished[prev.JobID] {
					t.Errorf("job %d started at %v, job %d finished at %v: the executor waited %v",
						i+1, cur.At, i, finished[prev.JobID], cur.At-finished[prev.JobID])
				}
			}
			if relayed != tc.relayed {
				t.Errorf("%d results relayed through the owner, want %d", relayed, tc.relayed)
			}
		})
	}
}

// TestCrashKillsInFlightReports crashes the run node while the
// grid.report activities of its finished jobs are still retrying a
// lost result. The crash must kill them with the node's loops, so the
// restarted node runs exactly the procs a fresh start does.
func TestCrashKillsInFlightReports(t *testing.T) {
	c := oneRunNode(t)
	defer c.e.Shutdown()
	c.net.Faults = faultinject.NewKeyed(1, faultinject.Rule{Method: grid.MResult, Requests: true, DropProb: 1})
	run := c.hosts[1]
	fresh := run.Procs()

	c.do(0, func(rt transport.Runtime) {
		for i := 0; i < 2; i++ {
			if _, err := c.nodes[0].Submit(rt, grid.JobSpec{Work: time.Second}); err != nil {
				t.Fatalf("submit %d: %v", i, err)
			}
		}
	})
	c.e.RunFor(4 * time.Second) // both jobs ran; their results are in retries
	if got := c.nodes[1].Completed; got != 2 {
		t.Fatalf("%d jobs completed before the crash, want 2", got)
	}
	if got := run.Procs(); got <= fresh {
		t.Fatalf("run node holds %d procs with two reports in flight, %d at start", got, fresh)
	}
	run.Crash()
	if got := run.Procs(); got != 0 {
		t.Fatalf("crashed run node still holds %d procs", got)
	}
	c.e.RunFor(time.Second)
	run.Restart()
	c.nodes[1].Restart()
	if got := run.Procs(); got != fresh {
		t.Fatalf("restarted run node holds %d procs, a fresh one %d", got, fresh)
	}
}
