package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/faultinject"
	"repro/internal/grid"
	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// Results aggregates one deployment run.
type Results struct {
	Alg       Algorithm
	Nodes     int
	Jobs      int
	Delivered int
	Started   int

	Wait        metrics.Summary // seconds, submission -> execution start
	Turnaround  metrics.Summary // seconds, submission -> result delivery
	MatchCost   metrics.Summary // messages per match (route+search+walk+push)
	MatchVisits metrics.Summary // nodes examined per match

	ImbalanceCV      float64 // coefficient of variation of per-node completions
	ImbalanceMaxMean float64

	Messages int64 // total network messages

	RunFailures   int // owner-detected run-node failures
	OwnerFailures int // run-node-detected owner failures
	Adoptions     int
	Resubmits     int
	MatchFailed   int
	GaveUp        int
	DupStarts     int   // surplus executions beyond one per job GUID
	Faulted       int64 // messages touched by the fault injector

	// Work accounting (nominal-work units). ExecutedWork is everything
	// run nodes computed, counted at slice boundaries; UsefulWork is the
	// nominal work of delivered jobs; WastedWork is the difference —
	// work lost to failures, re-executed on recovery, or discarded as
	// duplicate.
	ExecutedWork time.Duration
	UsefulWork   time.Duration
	WastedWork   time.Duration

	// ReexecutedWork is the share of WastedWork spent on jobs that were
	// eventually delivered — the recovery re-run overhead checkpointing
	// exists to cut. The remainder of WastedWork belongs to jobs never
	// delivered (gave up / still pending) and to discarded duplicates.
	ReexecutedWork time.Duration

	// Checkpoint/resume counters (zero with checkpointing off).
	Checkpoints int
	Resumes     int
	ResumedWork time.Duration // work salvaged by resuming from snapshots

	// Notification-overlay accounting (DESIGN.md §13; zero without
	// Scenario.Notify except StatusRPCs, which counts polling too).
	StatusRPCs   int64 // grid.status requests on the wire (polling cost)
	PubsubMsgs   int64 // pubsub.* requests on the wire (push cost)
	NotifyRecv   int64 // notifications absorbed by client nodes
	StatusProbes int64 // status probes client monitors chose to send

	// Replication counters (zero with ReplicaK 0).
	Promotions int // replicas that took over a dead owner's jobs
	Handoffs   int // re-established execution paths after takeover/restore
	Restores   int // records pushed back to a restarted, amnesiac owner
	Demotions  int // stale owners fenced out by a newer epoch

	// Sabotage-tolerance counters (zero without voting/saboteurs).
	Saboteurs     int // nodes configured Byzantine
	WrongAccepted int // delivered results whose digest != honest expectation
	Votes         int // replica completion votes tallied
	Accepted      int // quorums reached
	Rejected      int // dissenting replicas rejected against a quorum
	QuorumFailed  int // jobs abandoned with quorum unreachable
	Blacklists    int // peers crossing into a blacklist
	Probes        int // known-answer probes completed

	SimEnd time.Duration // virtual time when the run stopped
}

// Run executes the workload on the deployment: each client submits its
// jobs at their arrival instants, and the simulation continues until
// every job's result is delivered or the drain deadline passes.
func (d *Deployment) Run() Results {
	d.drive()
	res := d.results()
	d.Engine.Shutdown()
	if ins := d.Scenario.Instrument; ins != nil && ins.OnStats != nil && d.Engine.Stats() != nil {
		ins.OnStats(fmt.Sprintf("%s nodes=%d jobs=%d", d.Scenario.Alg, res.Nodes, res.Jobs), d.Engine.Stats())
	}
	return res
}

// drive is Run up to the results: the engine is left running.
func (d *Deployment) drive() {
	s := d.Scenario
	w := d.W

	// Partition jobs by client, preserving arrival order.
	perClient := make([][]int, len(d.clients))
	for ji, job := range w.Jobs {
		c := job.Client % len(d.clients)
		perClient[c] = append(perClient[c], ji)
	}
	for c, jobIdxs := range perClient {
		node := d.Grids[d.clients[c]]
		jobIdxs := jobIdxs
		d.Hosts[d.clients[c]].Go("client.submit", func(rt transport.Runtime) {
			for _, ji := range jobIdxs {
				job := w.Jobs[ji]
				if wait := job.Arrival - rt.Now(); wait > 0 {
					rt.Sleep(wait)
				}
				_, _ = node.Submit(rt, grid.JobSpec{Cons: job.Cons, Work: job.Work, InputKB: 4})
			}
		})
		if s.Monitor || s.Churn > 0 || s.Faults != nil || s.Sabotage != nil {
			resubmitAfter := s.MonitorResubmitAfter
			if resubmitAfter == 0 {
				resubmitAfter = 30 * time.Second
			}
			node.StartClientMonitor(resubmitAfter)
		}
	}

	// Churn injection: crash a fraction of non-client nodes across the
	// arrival window.
	if s.Churn > 0 {
		clientSet := map[int]bool{}
		for _, c := range d.clients {
			clientSet[c] = true
		}
		rng := d.Engine.NewRand()
		var victims []int
		for i := range d.Grids {
			if !clientSet[i] {
				victims = append(victims, i)
			}
		}
		rng.Shuffle(len(victims), func(i, j int) { victims[i], victims[j] = victims[j], victims[i] })
		kill := int(float64(len(victims)) * s.Churn)
		span := w.Makespan()
		if span == 0 {
			span = time.Minute
		}
		for k := 0; k < kill; k++ {
			at := time.Duration(float64(span) * (0.1 + 0.8*rng.Float64()))
			victim := victims[k]
			d.Engine.Schedule(at, func() { d.Eps[victim].Crash() })
		}
	}

	// Seeded fault schedule: fill population-derived defaults, arm it,
	// and disarm before the final drain so a pending restart event
	// cannot respawn protocol loops mid-shutdown.
	var disarmFaults func()
	if s.Faults != nil {
		plan := *s.Faults
		if plan.Nodes == 0 {
			plan.Nodes = len(d.Grids)
		}
		if plan.Protect == nil {
			plan.Protect = append([]int(nil), d.clients...)
		}
		if plan.Window == 0 {
			plan.Window = w.Makespan()
			if plan.Window == 0 {
				plan.Window = time.Minute
			}
		}
		seed := s.FaultSeed
		if seed == 0 {
			seed = s.NetSeed
		}
		sched := faultinject.Generate(seed, plan)
		d.Net.Faults = sched.Injector(func() time.Duration { return time.Duration(d.Engine.Now()) })
		disarmFaults = sched.Arm(d.Engine, d.Net, d, func(i int) simnet.Addr {
			return simnet.Addr(d.Hosts[i].Addr())
		})
	}

	// Past the last arrival, the run may drain queues for 40x the mean
	// runtime.
	deadline := w.Makespan() + 40*s.Workload.MeanRuntime
	for {
		d.Engine.RunFor(10 * time.Second)
		if d.Collector.Count(grid.EvResultDelivered) >= len(w.Jobs) {
			break
		}
		if time.Duration(d.Engine.Now()) >= deadline {
			break
		}
	}
	if disarmFaults != nil {
		disarmFaults()
	}
}

func (d *Deployment) results() Results {
	col := d.Collector
	res := Results{
		Alg:           d.Scenario.Alg,
		Nodes:         len(d.Grids),
		Jobs:          len(d.W.Jobs),
		Delivered:     col.Count(grid.EvResultDelivered),
		Started:       col.Count(grid.EvStarted),
		Wait:          metrics.Summarize(col.WaitTimes()),
		Turnaround:    metrics.Summarize(col.Turnarounds()),
		MatchCost:     metrics.Summarize(col.MatchCosts()),
		MatchVisits:   metrics.Summarize(col.MatchVisits()),
		Messages:      d.Net.Stats.Messages,
		RunFailures:   col.Count(grid.EvRunFailureDetected),
		OwnerFailures: col.Count(grid.EvOwnerFailureDetected),
		Adoptions:     col.Count(grid.EvOwnerAdopted),
		Resubmits:     col.Count(grid.EvResubmitted),
		MatchFailed:   col.Count(grid.EvMatchFailed),
		GaveUp:        col.Count(grid.EvGaveUp),
		Faulted:       d.Net.Stats.Faulted,
		SimEnd:        time.Duration(d.Engine.Now()),
	}
	res.StatusRPCs = d.Net.Stats.ByMethod[grid.MStatus]
	for method, count := range d.Net.Stats.ByMethod {
		if strings.HasPrefix(method, "pubsub.") {
			res.PubsubMsgs += count
		}
	}
	for _, g := range d.Grids {
		res.NotifyRecv += g.NotifyRecv
		res.StatusProbes += g.StatusProbes
	}
	if d.Byz != nil {
		res.Saboteurs = len(d.Byz.Saboteurs())
	}
	res.Promotions = col.Count(grid.EvPromoted)
	res.Handoffs = col.Count(grid.EvHandoff)
	res.Restores = col.Count(grid.EvRestored)
	res.Demotions = col.Count(grid.EvDemoted)
	res.WrongAccepted = col.WrongDeliveries()
	res.Votes = col.Count(grid.EvVoted)
	res.Accepted = col.Count(grid.EvAccepted)
	res.Rejected = col.Count(grid.EvRejected)
	res.QuorumFailed = col.Count(grid.EvQuorumFailed)
	res.Blacklists = col.Count(grid.EvBlacklisted)
	res.Probes = col.Count(grid.EvProbed)
	res.Checkpoints = col.Count(grid.EvCheckpointed)
	res.Resumes = col.Count(grid.EvResumed)
	res.ResumedWork = col.ResumedWork()
	res.UsefulWork = col.UsefulWork()
	for _, g := range d.Grids {
		res.ExecutedWork += g.Executed
	}
	if res.WastedWork = res.ExecutedWork - res.UsefulWork; res.WastedWork < 0 {
		res.WastedWork = 0
	}
	perJob := make(map[ids.ID]time.Duration)
	for _, g := range d.Grids {
		for id, w := range g.ExecutedByJob() {
			perJob[id] += w
		}
	}
	startedJobs := 0
	for _, tr := range col.Jobs() {
		if tr.Started {
			startedJobs++
		}
		if extra := perJob[tr.JobID] - tr.Work; tr.Deliveries > 0 && extra > 0 {
			res.ReexecutedWork += extra
		}
	}
	res.DupStarts = res.Started - startedJobs
	perNode := make([]float64, 0, len(d.Grids))
	for _, g := range d.Grids {
		perNode = append(perNode, float64(g.Completed))
	}
	res.ImbalanceCV, res.ImbalanceMaxMean = metrics.Imbalance(perNode)
	return res
}

// Table is a printable experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	out := t.Title + "\n"
	line := func(cells []string) string {
		s := ""
		for i, c := range cells {
			s += fmt.Sprintf("%-*s  ", widths[i], c)
		}
		return s + "\n"
	}
	out += line(t.Header)
	for _, w := range widths {
		out += dashes(w) + "  "
	}
	out += "\n"
	for _, row := range t.Rows {
		out += line(row)
	}
	for _, n := range t.Notes {
		out += "note: " + n + "\n"
	}
	return out
}

func dashes(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = '-'
	}
	return string(b)
}

// SortRows orders rows lexicographically (stable output for goldens).
func (t *Table) SortRows() {
	sort.Slice(t.Rows, func(i, j int) bool {
		for k := range t.Rows[i] {
			if t.Rows[i][k] != t.Rows[j][k] {
				return t.Rows[i][k] < t.Rows[j][k]
			}
		}
		return false
	})
}

// CSV renders the table as comma-separated values (header first).
func (t *Table) CSV() string {
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	line := func(cells []string) string {
		out := make([]string, len(cells))
		for i, c := range cells {
			out[i] = esc(c)
		}
		return strings.Join(out, ",") + "\n"
	}
	s := line(t.Header)
	for _, row := range t.Rows {
		s += line(row)
	}
	return s
}
