package main

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/grid"
	"repro/internal/ids"
)

// matchCounter is the recorder of an untraced live run. It keeps the
// three tallies the end-to-end metrics need (matchmaking messages as
// metrics.Collector.MatchCosts defines them, matches, execution starts)
// and nothing per job.
type matchCounter struct {
	msgs, matched, started, matchFailed atomic.Int64
}

func (m *matchCounter) Record(ev grid.Event) {
	switch ev.Kind {
	case grid.EvInjected:
		m.msgs.Add(int64(ev.Hops))
	case grid.EvMatched:
		m.msgs.Add(int64(ev.Match.Hops + ev.Match.WalkHops + ev.Match.Pushes))
		m.matched.Add(1)
	case grid.EvMatchFailed:
		m.matchFailed.Add(1)
	case grid.EvStarted:
		m.started.Add(1)
	}
}

// counts is a point-in-time copy of a matchCounter.
type counts struct{ msgs, matched, started, matchFailed int64 }

func (m *matchCounter) snapshot() counts {
	return counts{m.msgs.Load(), m.matched.Load(), m.started.Load(), m.matchFailed.Load()}
}

func (c counts) minus(e counts) counts {
	return counts{c.msgs - e.msgs, c.matched - e.matched, c.started - e.started, c.matchFailed - e.matchFailed}
}

// stage indexes the per-job stamps the ledger keeps.
type stage int

const (
	stInjected stage = iota // injection node routed the job to its owner
	stOwned                 // owner recorded it
	stEnqueued              // run node accepted the assignment
	stStarted               // run node's executor picked it up
	numStages
)

// ledger is the recorder of a traced live run, shared by all peers. It
// stamps the first occurrence of each lifecycle step of every job with
// the benchmark's clock. Event.At is not used: it is each host's time
// since its own start, and the hosts start at different instants.
type ledger struct {
	matchCounter
	epoch time.Time

	mu     sync.Mutex
	stamps map[ids.ID]*[numStages]time.Duration
}

func newLedger(epoch time.Time) *ledger {
	return &ledger{epoch: epoch, stamps: make(map[ids.ID]*[numStages]time.Duration)}
}

func (l *ledger) Record(ev grid.Event) {
	l.matchCounter.Record(ev)
	var st stage
	switch ev.Kind {
	case grid.EvInjected:
		st = stInjected
	case grid.EvOwned:
		st = stOwned
	case grid.EvEnqueued:
		st = stEnqueued
	case grid.EvStarted:
		st = stStarted
	default:
		return
	}
	at := time.Since(l.epoch)
	l.mu.Lock()
	s := l.stamps[ev.JobID]
	if s == nil {
		s = new([numStages]time.Duration)
		l.stamps[ev.JobID] = s
	}
	if s[st] == 0 {
		s[st] = at
	}
	l.mu.Unlock()
}

// The six stages partition a job's turnaround: each starts where the
// previous one ends, so per job they sum to it exactly.
var stageNames = [...]string{
	"grid.inject.route_ms",       // send (or due) instant -> routed at the injection node
	"grid.owner.own_ms",          // -> recorded by the owner
	"grid.owner.match_assign_ms", // -> enqueued at the run node (match walk + assign RPC)
	"grid.runnode.queue_wait_ms", // -> execution start
	"grid.runnode.exec_ms",       // run node's own finish - start
	"grid.runnode.deliver_ms",    // -> result at the client
}

// stageSamples joins the client's send/result stamps with the ledger's
// and returns, per stage, the milliseconds every exactly-once job spent
// in it. Jobs with an incomplete or out-of-order stamp set are skipped
// and counted.
func (l *ledger) stageSamples(c *liveClient) (samples [len(stageNames)][]float64, skipped int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := c.measured; i < len(c.jobs); i++ {
		j := &c.jobs[i]
		s := l.stamps[j.id]
		if j.got != 1 || s == nil {
			continue
		}
		from := j.sendAt
		if j.due > 0 {
			from = j.due
		}
		marks := [...]time.Duration{from, s[stInjected], s[stOwned], s[stEnqueued], s[stStarted], s[stStarted] + j.exec, j.resultAt}
		ordered := true
		for k := 1; k < len(marks); k++ {
			if marks[k] < marks[k-1] || marks[k] == 0 {
				ordered = false
			}
		}
		if !ordered {
			skipped++
			continue
		}
		for k := range samples {
			samples[k] = append(samples[k], (marks[k+1]-marks[k]).Seconds()*1e3)
		}
	}
	return samples, skipped
}
