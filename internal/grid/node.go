package grid

import (
	"errors"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/ids"
	"repro/internal/obs"
	replpkg "repro/internal/replica"
	"repro/internal/resource"
	"repro/internal/transport"
	"repro/internal/trust"
)

// Errors returned by the grid layer.
var (
	ErrConstraints = errors.New("grid: node does not satisfy job constraints")
	ErrUnknownJob  = errors.New("grid: unknown job")
)

// RPC message types. Job-scoped messages carry a propagated trace
// context (TC) so the observability layer can reconstruct a job's
// lifecycle across nodes; handlers record and forward it but never
// branch on it (the trace-neutrality invariant — see internal/obs).
// Node-scoped messages (heartbeat, probe, trust, stats) carry none.
type (
	// InjectReq asks any node to insert a job for a client. TC is the
	// submission's trace context; zero from untraced legacy clients, in
	// which case the injection node derives it from the submission
	// identity.
	InjectReq struct {
		Client   transport.Addr
		Seq      int
		Attempt  int
		Cons     resource.Constraints
		Work     time.Duration
		InputKB  int
		OutputKB int
		// Input/CkptBias/CarryOutput mirror the JobSpec fields of the
		// same names (workflow data passing; see JobSpec).
		Input       []byte
		CkptBias    float64
		CarryOutput bool
		TC          obs.TC
	}
	// InjectResp confirms insertion: the assigned GUID and owner, plus
	// (with replication on) the owner's ranked replica target list so
	// the client's monitor can probe the chain if the owner goes silent.
	// RetryAfterMS, when non-zero, is an owner backpressure rejection
	// instead: nothing was inserted, try again after that many
	// milliseconds (plus jitter).
	InjectResp struct {
		JobID        ids.ID
		Owner        transport.Addr
		Hops         int
		Reps         []transport.Addr
		RetryAfterMS int64
	}
	// InjectBatchReq carries many submissions through one routed RPC —
	// the high-throughput injection path (DESIGN.md §11).
	InjectBatchReq struct {
		Items []InjectReq
	}
	// InjectBatchResp answers positionally: Results[i] is Items[i]'s
	// outcome.
	InjectBatchResp struct {
		Results []InjectResult
	}
	// InjectResult is one batched item's outcome. JobID is always the
	// item's GUID; an accepted job also carries its owner and replica
	// chain, an owner rejection RetryAfterMS, and a routing or handoff
	// failure Err (the client re-routes and retries).
	InjectResult struct {
		JobID        ids.ID
		Owner        transport.Addr
		Hops         int
		Reps         []transport.Addr
		RetryAfterMS int64
		Err          string
	}
	// OwnReq hands a job profile to its owner node.
	OwnReq struct {
		Prof Profile
		TC   obs.TC
	}
	// OwnBatchReq hands every profile the injection node routed to one
	// owner over in a single RPC.
	OwnBatchReq struct {
		Items []OwnReq
	}
	// OwnBatchResp answers positionally; items beyond the owner's
	// remaining capacity carry RetryAfterMS.
	OwnBatchResp struct {
		Results []OwnResult
	}
	// OwnResult is one batched handoff's outcome.
	OwnResult struct {
		Reps         []transport.Addr
		RetryAfterMS int64
	}
	// AssignReq enqueues a job at a run node. Ckpt, when non-zero,
	// carries the owner's latest checkpoint so the run node resumes
	// from saved progress instead of restarting. Reps, when replication
	// is on, is the owner's ranked replica target list: if the owner
	// later dies, the run node offers adoption to these nodes in rank
	// order, converging on the same successor the replica layer's
	// rank-based promotion elects instead of recruiting a random
	// walk-routed second owner.
	AssignReq struct {
		Prof  Profile
		Owner transport.Addr
		Ckpt  Checkpoint
		Reps  []transport.Addr
		TC    obs.TC
	}
	// AssignResp acknowledges with the queue position.
	AssignResp struct{ Position int }
	// HeartbeatReq is the run node's periodic per-owner report. Ckpts
	// piggybacks fresh job checkpoints whose state fits the configured
	// payload cap; oversized snapshots travel via CheckpointReq.
	HeartbeatReq struct {
		Run   transport.Addr
		Jobs  []ids.ID
		Ckpts []Checkpoint
	}
	// HeartbeatResp lists jobs the run node should drop (reassigned or
	// unknown to this owner).
	HeartbeatResp struct{ Drop []ids.ID }
	// CompleteReq tells the owner a job finished. Under redundant
	// execution it doubles as the replica's vote: Digest fingerprints
	// the result content and Res carries the full result so the owner
	// can deliver the quorum winner itself. Legacy (R=1) senders leave
	// both zero.
	CompleteReq struct {
		JobID  ids.ID
		Run    transport.Addr
		Digest string
		Res    Result
		TC     obs.TC
	}
	// CompleteResp acknowledges completion.
	CompleteResp struct{}
	// ResultReq delivers a result to the client.
	ResultReq struct {
		Res Result
		TC  obs.TC
	}
	// ResultResp acknowledges delivery.
	ResultResp struct{}
	// RelayReq asks the owner to deliver a result the run node could
	// not deliver directly.
	RelayReq struct {
		Res Result
		TC  obs.TC
	}
	// RelayResp acknowledges the relay request.
	RelayResp struct{}
	// AdoptReq asks a node to become the new owner of an orphaned job.
	// Ckpt carries the run node's newest snapshot so the adopting
	// owner is immediately recovery-capable.
	AdoptReq struct {
		Prof Profile
		Run  transport.Addr
		Ckpt Checkpoint
		TC   obs.TC
	}
	// AdoptResp acknowledges adoption.
	AdoptResp struct{}
	// CheckpointReq ships one snapshot too large for heartbeat
	// piggybacking to the job's owner.
	CheckpointReq struct {
		Run  transport.Addr
		Ckpt Checkpoint
		TC   obs.TC
	}
	// CheckpointResp acknowledges checkpoint receipt.
	CheckpointResp struct{}
	// ProbeJobReq is a known-answer spot-check: the prober asks a
	// (typically blacklisted) peer to execute Work's worth of synthetic
	// computation whose correct digest the prober already knows.
	ProbeJobReq struct {
		Nonce string
		Work  time.Duration
	}
	// ProbeJobResp returns the probe's result digest.
	ProbeJobResp struct{ Digest string }
	// TrustReq asks a node for its local reputation table.
	TrustReq struct{}
	// TrustResp returns the table's entries (empty when the node keeps
	// no table).
	TrustResp struct{ Entries []trust.Entry }
	// StatusReq asks an owner about a job.
	StatusReq struct {
		JobID ids.ID
		TC    obs.TC
	}
	// StatusResp reports whether the responder tracks the job. A node
	// that owns the job also reports itself (Owner) and its current
	// replica chain (Reps) so the probing client re-aims future probes
	// after an adoption or promotion moved the job; a replica answering
	// on a live owner's behalf leaves both empty.
	StatusResp struct {
		Known   bool
		Matched bool
		Run     transport.Addr
		Owner   transport.Addr
		Reps    []transport.Addr
	}
)

// Method names registered on the host.
const (
	MInject      = "grid.inject"
	MInjectBatch = "grid.injectbatch"
	MOwnBatch    = "grid.ownbatch"
	MAssign      = "grid.assign"
	MHeartbeat   = "grid.heartbeat"
	MComplete    = "grid.complete"
	MResult      = "grid.result"
	MRelay       = "grid.relay"
	MAdopt       = "grid.adopt"
	MStatus      = "grid.status"
	MCkpt        = "grid.checkpoint"
	MProbe       = "grid.probe"
	MTrust       = "grid.trust"
)

// ownedJob is the owner-side record of a job.
type ownedJob struct {
	prof       Profile
	run        transport.Addr
	matched    bool
	excluded   []transport.Addr
	lastHB     time.Duration
	matching   bool
	relay      *Result    // result awaiting relay to the client
	relayTries int        // failed relay attempts so far
	ckpt       Checkpoint // latest checkpoint received from a run node
	// tc is the job's trace context (observability only: carried and
	// recorded, never read by protocol logic).
	tc obs.TC
	// vote, when non-nil, switches this job to the redundant-execution
	// state machine (see voting.go); run/matched/lastHB/ckpt are unused.
	// It is set before the record is published and never changes.
	vote *voteState
	life life
}

// role is the owner role this record plays in the lifecycle table.
func (j *ownedJob) role() role {
	if j.vote != nil {
		return voter
	}
	return owner
}

// absorbCkpt keeps ck if it is fresh progress for this job from a run
// node the owner has not disavowed. It reports whether ck was kept.
func (j *ownedJob) absorbCkpt(ck Checkpoint) bool {
	if ck.Zero() || ck.Attempt != j.prof.Attempt || ck.Done <= j.ckpt.Done {
		return false
	}
	if j.isExcluded(ck.Run) {
		return false
	}
	if j.matched && j.run != ck.Run {
		return false
	}
	j.ckpt = ck
	return true
}

func (j *ownedJob) isExcluded(a transport.Addr) bool {
	for _, x := range j.excluded {
		if x == a {
			return true
		}
	}
	return false
}

// queuedJob is the run-node-side record.
type queuedJob struct {
	prof  Profile
	owner transport.Addr
	// reps is the owner's ranked replica target list as of the last
	// assignment — the adoption candidates tried, in order, if the
	// owner goes silent (empty when replication is off).
	reps []transport.Addr
	// ckpt is the newest local checkpoint: seeded by a resumed
	// assignment, refreshed by the executor at every snapshot.
	ckpt Checkpoint
	// shippedDone is the progress mark of the last checkpoint the
	// owner acknowledged; snapshots beyond it are pending shipment.
	shippedDone time.Duration
	// dropped marks a job the owner disavowed (dropJobs): its execution
	// aborts at the next slice, its result is discarded and its
	// checkpoints are no longer shipped. It lives and dies with the
	// queued job, so a run node keeps nothing for a job once it leaves.
	dropped bool
	// tc/enqueuedAt are observability-only (trace context and queue-wait
	// measurement); tc is always read and written under the node lock.
	tc         obs.TC
	enqueuedAt time.Duration
	life       life
}

// Node is one grid peer: simultaneously a potential injection node,
// owner node, and run node, plus a client submitting its own jobs.
type Node struct {
	host    transport.Host
	cfg     Config
	caps    resource.Vector
	os      string
	overlay Overlay
	matcher Matchmaker
	rec     Recorder
	om      *nodeObs // resolved instruments (never nil; no-op fields)
	// handlers is the node's method table: registered on the host for
	// peers, and dispatched in place by call when the callee is this node.
	handlers map[string]transport.Handler
	// repl is the replicated owner-state store (DESIGN.md §10); nil
	// unless cfg.ReplicaK > 0 and a ReplicaRing is supplied.
	repl *replpkg.Manager

	mu    sync.Mutex
	owned map[ids.ID]*ownedJob
	queue []*queuedJob
	// queueCond (on mu) is broadcast when assign enqueues a job; the
	// executor waits on it while the queue is empty.
	queueCond transport.Cond
	running   *queuedJob
	started   bool

	// client role
	clientSeq int
	pending   map[ids.ID]*pendingJob
	// resultCond (on mu) is broadcast, and resultEvents bumped, on every
	// fresh result and push notification for this client's jobs;
	// AwaitAll and AwaitResultEvent wait on it.
	resultCond   transport.Cond
	resultEvents uint64

	// failObs holds recent failure-signal instants (owner declared
	// dead, resumed assignment received) feeding the adaptive
	// checkpoint interval.
	failObs []time.Duration

	// nextProbe schedules the next known-answer spot-check (lazily
	// initialized to now+ProbeEvery on the first monitor tick);
	// probeSeq numbers probes for unique nonces.
	nextProbe time.Duration
	probeSeq  int

	// Stats, readable after a run.
	Completed  int64         // jobs this node finished as run node
	Executed   time.Duration // nominal work executed (completed slices)
	executedBy map[ids.ID]time.Duration

	// Client-side notification stats (guarded by mu): push
	// notifications received, and status probes actually sent by the
	// monitor — the pair the notifsweep experiment compares.
	NotifyRecv   int64
	StatusProbes int64
}

type pendingJob struct {
	seq     int
	attempt int
	// spec is kept whole so a resubmission rebuilds it: a workflow
	// stage resubmitted by the monitor must keep its upstream input
	// bytes and checkpoint bias.
	spec     JobSpec
	submitAt time.Duration
	resultAt time.Duration
	got      bool
	// res is the delivered result (valid once got); kept so workflow
	// harvesters can read stage output by seq after delivery.
	res Result
	// owner/reps aim the monitor's status probes: the job's owner as of
	// injection (re-aimed by each successful probe) and that owner's
	// replica chain. Under walk placement the overlay cannot re-route a
	// GUID to its owner, so these pointers are how the client finds
	// whoever still tracks the job before concluding it is lost.
	owner transport.Addr
	reps  []transport.Addr
	// lastNotify is when the last push notification for this lineage
	// arrived (zero if none). A fresh value lets the monitor skip the
	// status probe: someone alive is demonstrably driving the job.
	lastNotify time.Duration
	life       life
}

// NewNode creates a grid peer bound to host, using the given overlay
// for owner routing and matcher for run-node selection. rec may be nil.
func NewNode(host transport.Host, caps resource.Vector, os string, overlay Overlay, matcher Matchmaker, rec Recorder, cfg Config) *Node {
	if rec == nil {
		rec = nopRecorder{}
	}
	n := &Node{
		host:       host,
		cfg:        cfg.withDefaults(),
		caps:       caps,
		os:         os,
		overlay:    overlay,
		matcher:    matcher,
		rec:        rec,
		owned:      make(map[ids.ID]*ownedJob),
		pending:    make(map[ids.ID]*pendingJob),
		executedBy: make(map[ids.ID]time.Duration),
	}
	n.queueCond.L = &n.mu
	n.resultCond.L = &n.mu
	n.om = newNodeObs(n, n.cfg.Obs)
	n.handlers = map[string]transport.Handler{
		MInject:      n.handleInject,
		MInjectBatch: n.handleInjectBatch,
		MOwnBatch:    n.handleOwnBatch,
		MAssign:      n.handleAssign,
		MHeartbeat:   n.handleHeartbeat,
		MComplete:    n.handleComplete,
		MResult:      n.handleResult,
		MRelay:       n.handleRelay,
		MAdopt:       n.handleAdopt,
		MStatus:      n.handleStatus,
		MCkpt:        n.handleCheckpoint,
		MProbe:       n.handleProbe,
		MTrust:       n.handleTrust,
		MStats:       n.handleStats,
		MTrace:       n.handleTrace,
		MReplicas:    n.handleReplicas,
		MHealth:      n.handleHealth,
	}
	for method, h := range n.handlers {
		host.Handle(method, h)
	}
	if n.cfg.ReplicaK > 0 && n.cfg.ReplicaRing != nil {
		n.repl = replpkg.New(host, n.cfg.ReplicaRing, replpkg.Config{
			K:        n.cfg.ReplicaK,
			OnOwn:    n.onReplicaOwn,
			OnFenced: n.onReplicaFenced,
			Obs:      n.cfg.Obs,
		})
	}
	if n.cfg.Notify != nil {
		// Not left to callers: forgetting it silently demotes push to polling.
		n.cfg.Notify.SetOnEvent(n.OnNotification)
	}
	return n
}

// call sends one grid RPC. A call to this node runs the method's
// handler in place, with no network leg: every role lives on every peer
// (the paper's Fig. 1), so a job's owner is often its run node or its
// injection node, and the message between those roles is the same
// either way.
func (n *Node) call(rt transport.Runtime, to transport.Addr, method string, req any) (any, error) {
	if to == n.host.Addr() {
		return n.handlers[method](rt, to, req)
	}
	return rt.Call(to, method, req)
}

// Caps returns the node's capability vector.
func (n *Node) Caps() resource.Vector { return n.caps }

// OS returns the node's operating system label.
func (n *Node) OS() string { return n.os }

// Addr returns the node's address.
func (n *Node) Addr() transport.Addr { return n.host.Addr() }

// QueueLen returns the run queue length including the running job —
// the load metric matchmakers consume.
func (n *Node) QueueLen() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	l := len(n.queue)
	if n.running != nil {
		l++
	}
	return l
}

// Start launches the node's background activities: the executor, the
// heartbeat loop, and the owner monitor.
func (n *Node) Start() {
	n.mu.Lock()
	if n.started {
		n.mu.Unlock()
		return
	}
	n.started = true
	n.mu.Unlock()
	n.host.Go("grid.exec", n.execLoop)
	n.host.Go("grid.heartbeat", n.heartbeatLoop)
	n.host.Go("grid.monitor", n.ownerMonitorLoop)
	if n.repl != nil {
		n.repl.Start()
	}
}

// Restart models a process restart after a crash: all server-side soft
// state (owned jobs, run queue, drop markers) is lost and the
// background loops relaunch. Client-side submission tracking survives,
// as if persisted. Call only after the host has crashed and been
// brought back up — the crash killed the previous loops; calling this
// on a live node would double them.
func (n *Node) Restart() {
	n.mu.Lock()
	n.owned = make(map[ids.ID]*ownedJob)
	n.queue = nil
	n.running = nil
	n.failObs = nil
	n.started = false
	n.mu.Unlock()
	if n.repl != nil {
		// Replicated records are soft state too; the surviving replicas
		// push them back (probe push-back -> onReplicaOwn restore).
		n.repl.Reset()
	}
	n.Start()
}

// --- owner role ---

func (n *Node) handleOwnBatch(rt transport.Runtime, from transport.Addr, req any) (any, error) {
	b := req.(OwnBatchReq)
	out := make([]OwnResult, len(b.Items))
	var took []ids.ID
	for i, it := range b.Items {
		if full := n.ownJob(rt, it.Prof, it.TC, &took); full != nil {
			out[i].RetryAfterMS = full.After.Milliseconds()
			continue
		}
		out[i].Reps = n.replTargets()
	}
	if len(took) > 0 {
		// One match proc per hand-off: its jobs are matched together.
		n.host.Go("grid.match", func(rt transport.Runtime) { n.matchAndAssign(rt, took) })
	}
	return OwnBatchResp{Results: out}, nil
}

// retryAfterBase is the backoff an owner exactly at capacity suggests
// to rejected clients; clients jitter around it.
const retryAfterBase = 500 * time.Millisecond

// admitOwnLocked applies the bounded inject queue: with OwnerCapacity
// set and the owned map full, new injections are refused with a
// retry-after hint scaled by how far past capacity demand is pushing.
// Called under n.mu.
func (n *Node) admitOwnLocked() *RetryAfterError {
	if n.cfg.OwnerCapacity <= 0 || len(n.owned) < n.cfg.OwnerCapacity {
		return nil
	}
	over := len(n.owned) - n.cfg.OwnerCapacity
	after := retryAfterBase * time.Duration(1+over)
	if max := 10 * retryAfterBase; after > max {
		after = max
	}
	return &RetryAfterError{After: after}
}

// ownJob records ownership of one job of a hand-off and appends it to
// took for the hand-off's match proc (handleOwnBatch); a voting job
// gets its own filler at once. It refuses the job only when the bounded
// inject queue is full, and accepts a job it already owns as it is.
func (n *Node) ownJob(rt transport.Runtime, prof Profile, tc obs.TC, took *[]ids.ID) *RetryAfterError {
	n.mu.Lock()
	if _, dup := n.owned[prof.ID]; dup {
		n.mu.Unlock()
		return nil
	}
	if full := n.admitOwnLocked(); full != nil {
		n.mu.Unlock()
		n.transition(tc, owner, nil, prof, Event{Kind: EvInjectRejected, At: rt.Now()}, "", "", "")
		return full
	}
	job := &ownedJob{prof: prof, lastHB: rt.Now(), matching: true, tc: tc}
	if n.cfg.votingOn() {
		job.matching = false
		job.vote = newVoteState()
		job.vote.filling = true
	}
	n.owned[prof.ID] = job
	n.transition(tc, job.role(), &job.life, prof, Event{Kind: EvOwned, At: rt.Now()}, "", n.host.Addr(), "")
	n.mu.Unlock()
	n.republish(prof.ID)
	if job.vote != nil {
		n.host.Go("grid.match", func(rt transport.Runtime) {
			n.fillReplicas(rt, prof.ID)
		})
		return nil
	}
	*took = append(*took, prof.ID)
	return nil
}

// unplaced is one job of a matchAndAssign batch that is not placed yet:
// what the round read of it, and the candidates whose breaker was open,
// left out for the rest of this batch's rounds only (see placeOne).
type unplaced struct {
	id      ids.ID
	job     *ownedJob
	tc      obs.TC
	ckpt    Checkpoint
	demoted []transport.Addr
}

// matchAndAssign chooses run nodes for a batch of owned jobs and hands
// each job to its own, in rounds: match the jobs still unplaced
// together (one Matchmaker call), then place them in job order. A job
// whose assignment fails is retried in the next round with the node
// excluded, and a round that left any job unmatched sleeps
// MatchRetryEvery once. A job still unplaced after MaxRematch rounds is
// given up. A lone job (a rematch, an adoption) is a batch of one.
func (n *Node) matchAndAssign(rt transport.Runtime, jobIDs []ids.ID) {
	left := make([]*unplaced, len(jobIDs))
	for i, id := range jobIDs {
		left[i] = &unplaced{id: id}
	}
	defer func() {
		for _, u := range left {
			n.stopMatching(u.id)
		}
	}()
	for tries := 0; tries < n.cfg.MaxRematch && len(left) > 0; tries++ {
		var reqs []MatchReq
		var kept []*unplaced
		n.mu.Lock()
		for _, u := range left {
			job, ok := n.owned[u.id]
			if !ok {
				continue
			}
			u.job, u.tc, u.ckpt = job, job.tc, job.ckpt
			exclude := append(slices.Clone(job.excluded), u.demoted...)
			reqs = append(reqs, MatchReq{Cons: job.prof.Cons, Exclude: exclude})
			kept = append(kept, u)
		}
		n.mu.Unlock()
		left = kept
		if len(left) == 0 {
			return
		}

		results := n.matcher.FindRunNodes(rt, reqs)
		unmatchedAny := false
		kept = nil
		for k, u := range left {
			run := results[k].Run
			tc, res := n.placeOne(rt, u.job, u.tc, u.ckpt, results[k])
			switch res {
			case skipped:
				u.demoted = append(u.demoted, run)
			case refused:
				n.republish(u.id)
			case unmatched:
				unmatchedAny = true
			case placed:
				n.mu.Lock()
				if job, ok := n.owned[u.id]; ok {
					job.run = run
					job.matched = true
					job.lastHB = rt.Now()
					job.tc = tc
				}
				n.mu.Unlock()
				n.republish(u.id)
				n.stopMatching(u.id)
				continue
			}
			kept = append(kept, u)
		}
		left = kept
		if unmatchedAny {
			rt.Sleep(n.cfg.MatchRetryEvery)
		}
	}
	for _, u := range left {
		n.mu.Lock()
		job, ok := n.owned[u.id]
		var tc obs.TC
		if ok {
			tc = job.tc
			delete(n.owned, u.id)
		}
		n.mu.Unlock()
		if ok {
			n.giveUp(rt.Now(), job, tc)
		}
	}
}

// giveUp ends a job this owner has just deleted from n.owned without
// delivering it (placement, relay or quorum budget spent): EvGaveUp,
// whose push makes the client's monitor probe at its next tick, and a
// tombstone for the replicated record.
func (n *Node) giveUp(now time.Duration, job *ownedJob, tc obs.TC) {
	n.transition(tc, job.role(), &job.life, job.prof, Event{Kind: EvGaveUp, At: now}, "", n.host.Addr(), "")
	n.retire(now, job.prof.ID)
}

// stopMatching clears an owned job's matching mark: no match proc
// drives it any more, and the monitor may rematch it.
func (n *Node) stopMatching(jobID ids.ID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if job, ok := n.owned[jobID]; ok {
		job.matching = false
	}
}

// placement is what one candidate step of a placement loop came to.
type placement int

const (
	placed    placement = iota // the candidate acknowledged the assignment
	unmatched                  // the matcher found nobody
	skipped                    // the candidate's breaker is open
	refused                    // the assignment failed; the candidate is on job.excluded
)

// placeOne is one candidate step of matchAndAssign and fillReplicas:
// EvMatchFailed if the match found nobody, a skip if the candidate's
// transport breaker is open, else the assignment and EvMatched. Only a
// real assign failure puts the candidate on the job's exclusions; a
// skipped one is left out for the caller's rounds only, so a peer is
// eligible again the moment its circuit closes.
func (n *Node) placeOne(rt transport.Runtime, job *ownedJob, tc obs.TC, ckpt Checkpoint, m MatchResult) (obs.TC, placement) {
	run, stats, prof := m.Run, m.Stats, job.prof
	if m.Err != nil {
		n.transition(tc, job.role(), &job.life, prof, Event{Kind: EvMatchFailed, At: rt.Now(), Match: stats}, "", "", "")
		return tc, unmatched
	}
	if n.peerDown(run) {
		return tc, skipped
	}
	// The "assigning" trace step is recorded before the assignment so
	// the run node's "enqueued" hop sorts strictly after it; "matched"
	// follows only once the run node has acknowledged.
	tc = n.trace(tc, rt.Now(), "assigning", prof.Attempt, run, "")
	req := AssignReq{Prof: prof, Owner: n.host.Addr(), Ckpt: ckpt, Reps: n.replTargets(), TC: tc}
	if _, err := n.call(rt, run, MAssign, req); err != nil {
		n.mu.Lock()
		if job, ok := n.owned[prof.ID]; ok {
			job.excluded = append(job.excluded, run)
		}
		n.mu.Unlock()
		return tc, refused
	}
	tc = n.transition(tc, job.role(), &job.life, prof, Event{Kind: EvMatched, At: rt.Now(), Match: stats}, run, run,
		n.traceNote("hops=%d visits=%d", stats.Hops, stats.Visits))
	return tc, placed
}

// ownerMonitorLoop watches heartbeats of owned jobs and rematches jobs
// whose run node has gone silent; it also retries pending result
// relays.
func (n *Node) ownerMonitorLoop(rt transport.Runtime) {
	for {
		rt.Sleep(n.cfg.HeartbeatEvery)
		n.monitorTick(rt)
	}
}

// deadRun is one job whose run node was declared dead: its record,
// with the trace context and salvageable checkpoint progress captured
// under the same lock that scanned it.
type deadRun struct {
	job   *ownedJob
	run   transport.Addr // the run node declared dead
	tc    obs.TC
	saved time.Duration
}

// monitorTick performs one owner-monitor pass. The record of every job
// marked for rematch is captured inside the scan's critical section: a
// concurrent handleComplete/tryRelay may delete the job between the
// scan and the rematch spawn, so the owned map must not be re-read
// afterwards.
func (n *Node) monitorTick(rt transport.Runtime) {
	now := rt.Now()
	var rematch []deadRun
	var deadReps []deadRun // dead replicas of voting jobs (no rematch spawn)
	var fills []ids.ID
	var relays []Result
	n.mu.Lock()
	jobIDs := make([]ids.ID, 0, len(n.owned))
	for id := range n.owned {
		jobIDs = append(jobIDs, id)
	}
	sort.Slice(jobIDs, func(i, j int) bool { return jobIDs[i].Less(jobIDs[j]) })
	for _, id := range jobIDs {
		job := n.owned[id]
		if job.relay != nil {
			relays = append(relays, *job.relay)
			continue
		}
		if job.vote != nil {
			if fill := n.voteTickLocked(now, id, job, &deadReps); fill {
				fills = append(fills, id)
			}
			continue
		}
		if !job.matched || job.matching {
			continue
		}
		if now-job.lastHB > n.cfg.RunDeadAfter {
			rematch = append(rematch, deadRun{job: job, run: job.run, tc: job.tc, saved: job.ckpt.Done})
			job.excluded = append(job.excluded, job.run)
			job.matched = false
			job.matching = true
		}
	}
	n.mu.Unlock()
	for _, d := range deadReps {
		n.transition(d.tc, voter, &d.job.life, d.job.prof, Event{Kind: EvRunFailureDetected, At: now}, d.run, d.run, "")
		n.republish(d.job.prof.ID)
	}
	for _, d := range rematch {
		n.transition(d.tc, owner, &d.job.life, d.job.prof, Event{Kind: EvRunFailureDetected, At: now, Progress: d.saved}, d.run, d.run,
			n.traceNote("saved=%s", d.saved))
		id := d.job.prof.ID
		n.republish(id)
		n.host.Go("grid.rematch", func(rt transport.Runtime) {
			n.matchAndAssign(rt, []ids.ID{id})
		})
	}
	for _, id := range fills {
		id := id
		n.host.Go("grid.fill", func(rt transport.Runtime) {
			n.fillReplicas(rt, id)
		})
	}
	for _, res := range relays {
		n.tryRelay(rt, res)
	}
	n.maybeProbe(rt, now)
}

// tryRelay forwards a result to the client on the run node's behalf.
// Attempts are bounded by ResultRetries: a client that never comes
// back must not pin the owned entry forever, so the owner eventually
// gives the job up (the client's own monitor resubmits if it returns).
func (n *Node) tryRelay(rt transport.Runtime, res Result) {
	n.mu.Lock()
	job, ok := n.owned[res.JobID]
	var tc obs.TC
	if ok {
		tc = job.tc
	}
	n.mu.Unlock()
	if !ok {
		return
	}
	tc = n.trace(tc, rt.Now(), "result-relayed", res.Attempt, job.prof.Client, "")
	if _, err := rt.Call(job.prof.Client, MResult, ResultReq{Res: res, TC: tc}); err == nil {
		n.mu.Lock()
		delete(n.owned, res.JobID)
		n.mu.Unlock()
		n.retire(rt.Now(), res.JobID)
		return
	}
	n.mu.Lock()
	job, ok = n.owned[res.JobID]
	gaveUp := false
	if ok {
		job.relayTries++
		if job.relayTries >= n.cfg.ResultRetries {
			delete(n.owned, res.JobID)
			gaveUp = true
		}
	}
	n.mu.Unlock()
	if gaveUp {
		n.giveUp(rt.Now(), job, tc)
	}
}

func (n *Node) handleComplete(rt transport.Runtime, from transport.Addr, req any) (any, error) {
	c := req.(CompleteReq)
	n.mu.Lock()
	job, ok := n.owned[c.JobID]
	if !ok {
		n.mu.Unlock()
		return CompleteResp{}, nil
	}
	// The step chains off the run node's incoming context, falling back
	// to the owner's stored one for untraced senders.
	tc := c.TC
	if tc.Zero() {
		tc = job.tc
	}
	if job.vote != nil {
		evs, fill := n.applyVoteLocked(rt.Now(), job, c)
		n.mu.Unlock()
		for _, ev := range evs {
			peer := ev.Node
			if peer == n.host.Addr() {
				peer = ""
			}
			tc = n.transition(tc, voter, &job.life, job.prof, ev, peer, c.Run, "")
		}
		if fill {
			n.host.Go("grid.fill", func(rt transport.Runtime) {
				n.fillReplicas(rt, c.JobID)
			})
		}
		return CompleteResp{}, nil
	}
	// A complete from a run node this owner has disavowed (excluded
	// after a heartbeat timeout, or displaced by a rematch) is a zombie:
	// accepting it would forget the job while the replacement still runs
	// it — the same rule heartbeats already apply.
	if job.isExcluded(c.Run) || (job.matched && job.run != c.Run) {
		n.mu.Unlock()
		return CompleteResp{}, nil
	}
	retired := job.relay == nil
	if retired {
		delete(n.owned, c.JobID)
	}
	n.mu.Unlock()
	n.transition(tc, owner, &job.life, job.prof, Event{Kind: EvCompleted, At: rt.Now()}, c.Run, c.Run, "")
	if retired {
		n.retire(rt.Now(), c.JobID)
	}
	return CompleteResp{}, nil
}

func (n *Node) handleRelay(rt transport.Runtime, from transport.Addr, req any) (any, error) {
	r := req.(RelayReq)
	n.mu.Lock()
	job, ok := n.owned[r.Res.JobID]
	if ok {
		res := r.Res
		job.relay = &res
		if !r.TC.Zero() {
			job.tc = r.TC
		}
	}
	n.mu.Unlock()
	if ok {
		n.trace(r.TC, rt.Now(), "relay-accepted", r.Res.Attempt, from, "")
	}
	return RelayResp{}, nil
}

func (n *Node) handleAdopt(rt transport.Runtime, from transport.Addr, req any) (any, error) {
	a := req.(AdoptReq)
	n.mu.Lock()
	job, dup := n.owned[a.Prof.ID]
	fill := !dup && n.cfg.votingOn()
	switch {
	case fill:
		// Owner failover under redundant execution: the dead owner's
		// vote state (partial tallies) is lost. The adopting owner
		// restarts the vote seeded with this surviving replica; other
		// survivors re-register through their own adopt calls, and the
		// filler tops the set back up to R.
		job = n.newVotingJobLocked(a.Prof)
	case !dup:
		job = &ownedJob{prof: a.Prof, run: a.Run, matched: true, lastHB: rt.Now()}
	}
	if !dup || !a.TC.Zero() {
		job.tc = a.TC
	}
	if job.vote != nil {
		// The surviving run node registers as one replica of the vote.
		adoptReplicaLocked(job, a.Run, rt.Now())
	} else {
		// An owner that already tracks the job (a duplicated adopt, or
		// the run node re-routed to it) keeps its record, but absorbs
		// any fresher checkpoint the run node sent.
		job.absorbCkpt(a.Ckpt)
	}
	n.owned[a.Prof.ID] = job
	// The table refuses an adopt of a job this node already owns: no
	// ownership changed.
	n.transition(a.TC, job.role(), &job.life, a.Prof, Event{Kind: EvOwnerAdopted, At: rt.Now()}, a.Run, a.Run, "")
	n.mu.Unlock()
	// Adoption is an ownership transfer: republish opens a new epoch
	// that fences out whatever the previous owner replicated.
	n.republish(a.Prof.ID)
	if fill {
		n.host.Go("grid.fill", func(rt transport.Runtime) {
			n.fillReplicas(rt, a.Prof.ID)
		})
	}
	return AdoptResp{}, nil
}

// handleCheckpoint accepts a standalone checkpoint shipment (snapshots
// too large for heartbeat piggybacking).
func (n *Node) handleCheckpoint(rt transport.Runtime, from transport.Addr, req any) (any, error) {
	c := req.(CheckpointReq)
	n.mu.Lock()
	absorbed := false
	var prof Profile
	if job, ok := n.owned[c.Ckpt.JobID]; ok && job.vote == nil {
		absorbed = job.absorbCkpt(c.Ckpt)
		prof = job.prof
	}
	n.mu.Unlock()
	if absorbed {
		n.trace(c.TC, rt.Now(), "checkpoint-stored", c.Ckpt.Attempt, c.Run,
			n.traceNote("done=%s bytes=%d", c.Ckpt.Done, len(c.Ckpt.Data)))
		n.transition(c.TC, owner, nil, prof, Event{Kind: EvCheckpointed, At: rt.Now(), Progress: c.Ckpt.Done}, c.Run, c.Run, "")
		n.republish(c.Ckpt.JobID)
	}
	return CheckpointResp{}, nil
}

func (n *Node) handleStatus(rt transport.Runtime, from transport.Addr, req any) (any, error) {
	s := req.(StatusReq)
	n.mu.Lock()
	defer n.mu.Unlock()
	job, ok := n.owned[s.JobID]
	if !ok {
		// With replication on, a job this node does not own may still be
		// in good hands: mid-handoff (owner just died, a replica is about
		// to promote) or owned elsewhere after this node restarted.
		// Answering Known keeps the client's monitor patient; a record
		// whose owner is confirmed dead falls through to resubmission.
		if n.repl != nil && n.repl.Responsible(rt.Now(), s.JobID) {
			return StatusResp{Known: true}, nil
		}
		return StatusResp{}, nil
	}
	if job.vote != nil {
		return StatusResp{Known: true, Matched: len(job.vote.reps) > 0, Owner: n.host.Addr(), Reps: n.replTargets()}, nil
	}
	return StatusResp{Known: true, Matched: job.matched, Run: job.run, Owner: n.host.Addr(), Reps: n.replTargets()}, nil
}

func (n *Node) handleHeartbeat(rt transport.Runtime, from transport.Addr, req any) (any, error) {
	hb := req.(HeartbeatReq)
	n.om.hbRecv.Inc()
	var drop []ids.ID
	now := rt.Now()
	n.mu.Lock()
	for _, id := range hb.Jobs {
		job, ok := n.owned[id]
		if !ok {
			drop = append(drop, id)
			continue
		}
		if job.vote != nil {
			// Redundant execution: refresh the sender's replica. A
			// heartbeat from a non-replica, an excluded node, or for a
			// job whose quorum already accepted a result tells the
			// sender to stop — that drop is what cancels the losing
			// replicas still running after acceptance.
			if job.vote.winner == "" && !job.isExcluded(hb.Run) && job.vote.refresh(hb.Run, now) {
				continue
			}
			drop = append(drop, id)
			continue
		}
		// A sender in job.excluded is a run node this owner has already
		// given up on: even while a rematch is in flight (job unmatched),
		// its heartbeat must not refresh lastHB, and it must be told to
		// drop the job — otherwise the job runs twice once the rematch
		// lands.
		if (job.matched && job.run != hb.Run) || job.isExcluded(hb.Run) {
			drop = append(drop, id)
			continue
		}
		job.lastHB = now
	}
	// Piggybacked checkpoints: absorbCkpt re-validates the sender per
	// job, so a heartbeat answered with drops can still carry valid
	// progress for the jobs this owner does track from this run node.
	// Voting jobs ignore checkpoints: replicas restart from scratch
	// (redundant execution and checkpoint-resume do not compose; see
	// DESIGN.md §7).
	var absorbed []ids.ID
	for _, ck := range hb.Ckpts {
		if job, ok := n.owned[ck.JobID]; ok && job.vote == nil {
			if job.absorbCkpt(ck) {
				absorbed = append(absorbed, ck.JobID)
			}
		}
	}
	n.mu.Unlock()
	for _, id := range absorbed {
		n.republish(id)
	}
	return HeartbeatResp{Drop: drop}, nil
}
