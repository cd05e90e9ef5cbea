package metrics

import (
	"errors"
	"fmt"
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
	StartedAt  time.Duration
	ResultAt   time.Duration
	Started    bool
	Deliveries int // EvResultDelivered events; the first sets ResultAt, Work and Digest
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

	submitted bool // an EvSubmitted introduced this GUID
	gaveUp    bool // an EvGaveUp not yet followed by an EvResubmitted
}

// WrongDelivered reports whether the client accepted a result whose
// digest differs from the honest expectation — an accepted sabotage.
func (t *JobTrace) WrongDelivered() bool {
	return t.Deliveries > 0 && t.Expect != "" && t.Digest != t.Expect
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
	if t.Deliveries == 0 {
		return 0, false
	}
	return t.ResultAt - t.SubmitAt, true
}

// Collector implements grid.Recorder, building per-job traces and
// aggregate counters, and checks the exactly-once contract over the
// events it saw (Check).
type Collector struct {
	mu     sync.Mutex
	jobs   map[ids.ID]*JobTrace
	counts map[grid.EventKind]int
	marks  map[execution]time.Duration // the last work mark of each execution
	faults []error                     // rule-4 violations, found as the events arrive
}

// An execution is one GUID on one run node, counted from its EvStarted.
type execution struct {
	job  ids.ID
	node transport.Addr
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{
		jobs:   make(map[ids.ID]*JobTrace),
		counts: make(map[grid.EventKind]int),
		marks:  make(map[execution]time.Duration),
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
		t.submitted = true
		t.SubmitAt = ev.At
		t.Client = ev.Node
		t.Seq = ev.Seq
		t.Expect = ev.Digest
	case grid.EvInjected:
		t.RouteHops = ev.Hops
	case grid.EvMatched:
		t.Match = ev.Match
		t.MatchTries++
	case grid.EvStarted:
		if !t.Started {
			t.StartedAt = ev.At
			t.Started = true
		}
		c.marks[execution{ev.JobID, ev.Node}] = ev.Progress
	case grid.EvResultDelivered:
		if t.Deliveries == 0 {
			t.ResultAt = ev.At
			t.Work = ev.Progress
			t.Digest = ev.Digest
		}
		t.Deliveries++
	case grid.EvCheckpointed:
		t.Checkpoints++
		c.advance(ev)
	case grid.EvResumed:
		t.Resumes++
		t.ResumedWork += ev.Progress
		c.advance(ev)
	case grid.EvGaveUp:
		t.gaveUp = true
	case grid.EvResubmitted:
		t.gaveUp = false
	}
}

// advance applies rule 4 to a resume or snapshot: it belongs to a
// started execution, a resume restores exactly the offset the start
// announced, and a snapshot's work mark exceeds the last one.
func (c *Collector) advance(ev grid.Event) {
	x := execution{ev.JobID, ev.Node}
	mark, ok := c.marks[x]
	switch {
	case !ok:
		c.faults = append(c.faults, fmt.Errorf("job %s: %v on %s with no execution started there", ev.JobID.Short(), ev.Kind, ev.Node))
		return
	case ev.Kind == grid.EvResumed && ev.Progress != mark,
		ev.Kind == grid.EvCheckpointed && ev.Progress <= mark:
		c.faults = append(c.faults, fmt.Errorf("job %s: %v on %s at %v after %v", ev.JobID.Short(), ev.Kind, ev.Node, ev.Progress, mark))
	}
	c.marks[x] = ev.Progress
}

// Check reports every breach of the exactly-once contract in the events
// recorded so far, for a run that submitted `lineages` jobs. DESIGN.md
// §17 states the five rules; rule 4 is checked as events arrive.
func (c *Collector) Check(lineages int) error {
	jobs := c.Jobs()
	c.mu.Lock()
	errs := append([]error(nil), c.faults...)
	c.mu.Unlock()
	delivered := map[string]int{} // by lineage: client#seq
	for _, t := range jobs {
		if t.submitted {
			delivered[fmt.Sprintf("%s#%d", t.Client, t.Seq)] += t.Deliveries
		}
		if t.Deliveries > 1 {
			errs = append(errs, fmt.Errorf("job %s delivered %d times", t.JobID.Short(), t.Deliveries))
		}
		if t.Deliveries > 0 && !t.submitted {
			errs = append(errs, fmt.Errorf("job %s delivered but never submitted", t.JobID.Short()))
		}
		if t.Deliveries > 0 && t.Digest != t.Expect {
			errs = append(errs, fmt.Errorf("job %s delivered digest %q, want %q", t.JobID.Short(), t.Digest, t.Expect))
		}
	}
	for _, t := range jobs {
		if t.gaveUp && (!t.submitted || delivered[fmt.Sprintf("%s#%d", t.Client, t.Seq)] == 0) {
			errs = append(errs, fmt.Errorf("job %s gave up and was neither resubmitted nor delivered", t.JobID.Short()))
		}
	}
	lins := make([]string, 0, len(delivered))
	for l := range delivered {
		lins = append(lins, l)
	}
	sort.Strings(lins)
	for _, l := range lins {
		if n := delivered[l]; n != 1 {
			errs = append(errs, fmt.Errorf("lineage %s delivered %d times", l, n))
		}
	}
	if len(lins) != lineages {
		errs = append(errs, fmt.Errorf("%d lineages submitted, want %d", len(lins), lineages))
	}
	return errors.Join(errs...)
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
		if t.Deliveries > 0 {
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
