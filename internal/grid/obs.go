package grid

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
)

// Observability wiring for the grid layer. Everything here is
// trace-neutral by construction: counters, histograms, tracer records,
// and hub publishes are synchronous in-memory updates that never touch
// the Runtime (no sleeps, no calls, no random draws), and no protocol
// decision ever reads observability state back. Attaching a Config.Obs
// to a deterministic simulation therefore leaves its recorded event
// trace byte-identical (regression: obs_soak_test.go).

// nodeObs holds the node's resolved instruments, bound once at
// construction so hot paths never touch the registry map. With
// observability off every field is nil and each instrument call is one
// predictable branch.
type nodeObs struct {
	tracer *obs.Tracer
	hub    *obs.EventHub

	queueWait   *obs.Histogram // assignment -> execution start
	runSeconds  *obs.Histogram // execution start -> finish
	ckptBytes   *obs.Histogram // checkpoint snapshot payload sizes
	matchHops   *obs.Histogram // overlay messages per successful match
	matchVisits *obs.Histogram // nodes examined per successful match
	injectHops  *obs.Histogram // owner-routing hops per injection
	injectSecs  *obs.Histogram // route + owner-handoff latency per accepted injection

	hbSent   *obs.Counter // heartbeat RPCs sent (run-node side)
	hbAcked  *obs.Counter // heartbeat RPCs answered
	hbFailed *obs.Counter // heartbeat RPCs that errored
	hbRecv   *obs.Counter // heartbeat RPCs received (owner side)

	statusProbes *obs.Counter // status polls the client monitor actually sent
	notifyRecv   *obs.Counter // push notifications received (client side)

	events [len(eventNames)]*obs.Counter // per-EventKind lifecycle tallies
}

// ckptBytesBuckets spans KB-scale snapshots up to the low megabytes.
var ckptBytesBuckets = []float64{256, 1024, 4096, 16384, 65536, 262144, 1048576, 4194304}

func newNodeObs(n *Node, o *obs.Obs) *nodeObs {
	r := o.Registry()
	no := &nodeObs{
		tracer:       o.GetTracer(),
		hub:          o.GetHub(),
		queueWait:    r.Histogram("grid_queue_wait_seconds", obs.DefBucketsSeconds),
		runSeconds:   r.Histogram("grid_run_seconds", obs.DefBucketsSeconds),
		ckptBytes:    r.Histogram("grid_checkpoint_bytes", ckptBytesBuckets),
		matchHops:    r.Histogram("grid_match_hops", obs.DefBucketsHops),
		matchVisits:  r.Histogram("grid_match_visits", obs.DefBucketsHops),
		injectHops:   r.Histogram("grid_inject_hops", obs.DefBucketsHops),
		injectSecs:   r.Histogram("grid_inject_seconds", obs.DefBucketsSeconds),
		hbSent:       r.Counter("grid_heartbeats_sent_total"),
		hbAcked:      r.Counter("grid_heartbeats_acked_total"),
		hbFailed:     r.Counter("grid_heartbeat_failures_total"),
		hbRecv:       r.Counter("grid_heartbeats_received_total"),
		statusProbes: r.Counter("grid_status_probes_total"),
		notifyRecv:   r.Counter("grid_notifications_received_total"),
	}
	for k := range eventNames {
		no.events[k] = r.Counter("grid_events_total", "kind", eventNames[k])
	}
	// Pull-evaluated gauges: sampled only at scrape time. In multi-node
	// tests sharing one registry, re-registration is last-wins; live
	// deployments run one node per registry.
	r.GaugeFunc("grid_queue_depth", func() float64 { return float64(n.QueueLen()) })
	r.GaugeFunc("grid_owned_jobs", func() float64 { return float64(n.ownedCount()) })
	r.GaugeFunc("grid_pending_jobs", func() float64 { return float64(n.PendingCount()) })
	return no
}

// ownedCount returns how many jobs this node currently owns.
func (n *Node) ownedCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.owned)
}

// trace records one plumbing step of a job's path at this node (a step
// with no EventKind; lifecycle steps go through emit) and returns the
// context to propagate onward. Nil tracer or zero context pass through
// unchanged.
func (n *Node) trace(tc obs.TC, at time.Duration, stage string, attempt int, peer transport.Addr, note string) obs.TC {
	return n.om.tracer.Record(tc, at, n.host.Addr(), stage, attempt, peer, note)
}

// traceNote formats a trace annotation only when tracing is on, keeping
// Sprintf off the hot path of untraced runs.
func (n *Node) traceNote(format string, args ...any) string {
	if n.om.tracer == nil {
		return ""
	}
	return fmt.Sprintf(format, args...)
}

// jobEvent is the Event for one step of prof's lifecycle at this node.
func (n *Node) jobEvent(kind EventKind, prof Profile, at time.Duration) Event {
	return Event{Kind: kind, JobID: prof.ID, Attempt: prof.Attempt, At: at, Node: n.host.Addr()}
}

// emit announces one lifecycle step, and is the recorder's only
// caller: it records a trace stage named ev.Kind.String() (peer and
// note annotate the trace only), counts the step in grid_events_total
// and the inject/match histograms, publishes it on /events, and hands
// it to the recorder. It returns the advanced trace context. emit
// never takes n.mu, so callers may hold it.
func (n *Node) emit(tc obs.TC, ev Event, peer transport.Addr, note string) obs.TC {
	om := n.om
	tc = n.trace(tc, ev.At, ev.Kind.String(), ev.Attempt, peer, note)
	om.events[ev.Kind].Inc()
	switch ev.Kind {
	case EvInjected:
		om.injectHops.Observe(float64(ev.Hops))
	case EvMatched:
		om.matchHops.Observe(float64(ev.Match.Hops + ev.Match.WalkHops + ev.Match.Pushes + ev.Match.Escalations))
		om.matchVisits.Observe(float64(ev.Match.Visits))
	}
	if om.hub != nil {
		om.hub.Publish(hubEvent{
			Ev: ev.Kind.String(), Job: ev.JobID.String(), Attempt: ev.Attempt,
			AtMS: ev.At.Milliseconds(), Node: string(ev.Node), Hops: ev.Hops,
			ProgressMS: ev.Progress.Milliseconds(), Digest: ev.Digest,
			Delta: ev.Delta, Seq: ev.Seq,
		})
	}
	n.rec.Record(ev)
	return tc
}

// hubEvent is the JSONL shape of one lifecycle event on /events.
type hubEvent struct {
	Ev         string  `json:"ev"`
	Job        string  `json:"job"`
	Attempt    int     `json:"attempt,omitempty"`
	AtMS       int64   `json:"at_ms"`
	Node       string  `json:"node"`
	Hops       int     `json:"hops,omitempty"`
	ProgressMS int64   `json:"progress_ms,omitempty"`
	Digest     string  `json:"digest,omitempty"`
	Delta      float64 `json:"delta,omitempty"`
	Seq        int     `json:"seq,omitempty"`
}
