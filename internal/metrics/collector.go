package metrics

import (
	"sort"
	"sync"
	"time"

	"repro/internal/grid"
	"repro/internal/ids"
	"repro/internal/transport"
)

// JobTrace accumulates the lifecycle timeline of one job GUID.
type JobTrace struct {
	JobID      ids.ID
	Client     transport.Addr
	Attempt    int
	SubmitAt   time.Duration
	OwnedAt    time.Duration
	MatchedAt  time.Duration
	StartedAt  time.Duration
	ResultAt   time.Duration
	Started    bool
	Delivered  bool
	RouteHops  int
	Match      grid.MatchStats
	MatchTries int
	// Checkpoint/resume accounting.
	Checkpoints int           // snapshots taken across all attempts
	Resumes     int           // executions that resumed from a snapshot
	ResumedWork time.Duration // work skipped thanks to resumption, summed
	Work        time.Duration // the job's nominal work, known once delivered
	// Sabotage-tolerance accounting: the digest an honest execution
	// must produce (from EvSubmitted), the digest actually delivered
	// (from EvResultDelivered), and the client-local submission number.
	Seq    int
	Expect string
	Digest string
}

// WrongDelivered reports whether the client accepted a result whose
// digest differs from the honest expectation — an accepted sabotage.
func (t *JobTrace) WrongDelivered() bool {
	return t.Delivered && t.Expect != "" && t.Digest != t.Expect
}

// Wait returns the paper's job wait time: submission to start of
// execution.
func (t *JobTrace) Wait() (time.Duration, bool) {
	if !t.Started {
		return 0, false
	}
	return t.StartedAt - t.SubmitAt, true
}

// Turnaround returns submission to result delivery.
func (t *JobTrace) Turnaround() (time.Duration, bool) {
	if !t.Delivered {
		return 0, false
	}
	return t.ResultAt - t.SubmitAt, true
}

// Collector implements grid.Recorder, building per-job traces and
// aggregate counters.
type Collector struct {
	mu     sync.Mutex
	jobs   map[ids.ID]*JobTrace
	counts map[grid.EventKind]int
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{
		jobs:   make(map[ids.ID]*JobTrace),
		counts: make(map[grid.EventKind]int),
	}
}

// Record implements grid.Recorder.
func (c *Collector) Record(ev grid.Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.counts[ev.Kind]++
	t, ok := c.jobs[ev.JobID]
	if !ok {
		t = &JobTrace{JobID: ev.JobID, Attempt: ev.Attempt}
		c.jobs[ev.JobID] = t
	}
	switch ev.Kind {
	case grid.EvSubmitted:
		t.SubmitAt = ev.At
		t.Client = ev.Node
		t.Seq = ev.Seq
		t.Expect = ev.Digest
	case grid.EvInjected:
		t.RouteHops = ev.Hops
	case grid.EvOwned:
		t.OwnedAt = ev.At
	case grid.EvMatched:
		t.MatchedAt = ev.At
		t.Match = ev.Match
		t.MatchTries++
	case grid.EvStarted:
		if !t.Started {
			t.StartedAt = ev.At
			t.Started = true
		}
	case grid.EvResultDelivered:
		if !t.Delivered {
			t.ResultAt = ev.At
			t.Delivered = true
			t.Work = ev.Progress
			t.Digest = ev.Digest
		}
	case grid.EvCheckpointed:
		t.Checkpoints++
	case grid.EvResumed:
		t.Resumes++
		t.ResumedWork += ev.Progress
	}
}

// Count returns how many events of a kind were recorded.
func (c *Collector) Count(kind grid.EventKind) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counts[kind]
}

// Jobs returns a snapshot of all traces, ordered by job identifier so
// downstream float accumulation is deterministic.
func (c *Collector) Jobs() []*JobTrace {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*JobTrace, 0, len(c.jobs))
	for _, t := range c.jobs {
		cp := *t
		out = append(out, &cp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].JobID.Less(out[j].JobID) })
	return out
}

// WaitTimes returns wait times in seconds for every started job.
func (c *Collector) WaitTimes() []float64 {
	var out []float64
	for _, t := range c.Jobs() {
		if w, ok := t.Wait(); ok {
			out = append(out, w.Seconds())
		}
	}
	return out
}

// Turnarounds returns turnaround times in seconds for delivered jobs.
func (c *Collector) Turnarounds() []float64 {
	var out []float64
	for _, t := range c.Jobs() {
		if w, ok := t.Turnaround(); ok {
			out = append(out, w.Seconds())
		}
	}
	return out
}

// MatchCosts returns, per matched job, the total matchmaking message
// count (route hops + search RPCs + walk + pushes).
func (c *Collector) MatchCosts() []float64 {
	var out []float64
	for _, t := range c.Jobs() {
		if t.MatchTries == 0 {
			continue
		}
		cost := t.RouteHops + t.Match.Hops + t.Match.WalkHops + t.Match.Pushes
		out = append(out, float64(cost))
	}
	return out
}

// UsefulWork sums the nominal work of every delivered job — the
// denominator of waste accounting.
func (c *Collector) UsefulWork() time.Duration {
	var sum time.Duration
	for _, t := range c.Jobs() {
		if t.Delivered {
			sum += t.Work
		}
	}
	return sum
}

// ResumedWork sums the work salvaged by checkpoint resumption across
// all jobs.
func (c *Collector) ResumedWork() time.Duration {
	var sum time.Duration
	for _, t := range c.Jobs() {
		sum += t.ResumedWork
	}
	return sum
}

// WrongDeliveries counts jobs whose delivered result digest differs
// from the submission's honest expectation — the accepted-wrong-result
// numerator of the sabotage-tolerance evaluation.
func (c *Collector) WrongDeliveries() int {
	n := 0
	for _, t := range c.Jobs() {
		if t.WrongDelivered() {
			n++
		}
	}
	return n
}

// MatchVisits returns per-job matchmaking node-visit counts.
func (c *Collector) MatchVisits() []float64 {
	var out []float64
	for _, t := range c.Jobs() {
		if t.MatchTries == 0 {
			continue
		}
		out = append(out, float64(t.Match.Visits))
	}
	return out
}
