package grid

import (
	"errors"
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
		// same names (workflow data passing; see Profile).
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
	vote *voteState
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
	seq      int
	attempt  int
	cons     resource.Constraints
	work     time.Duration
	inputKB  int
	outputKB int
	// input/ckptBias/carryOutput mirror the JobSpec so a resubmission
	// rebuilds the full spec — a workflow stage resubmitted by the
	// monitor must keep its upstream input bytes and checkpoint bias.
	input       []byte
	ckptBias    float64
	carryOutput bool
	submitAt    time.Duration
	resultAt    time.Duration
	got         bool
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
	host.Handle(MInject, n.handleInject)
	host.Handle(MInjectBatch, n.handleInjectBatch)
	host.Handle(MOwnBatch, n.handleOwnBatch)
	host.Handle(MAssign, n.handleAssign)
	host.Handle(MHeartbeat, n.handleHeartbeat)
	host.Handle(MComplete, n.handleComplete)
	host.Handle(MResult, n.handleResult)
	host.Handle(MRelay, n.handleRelay)
	host.Handle(MAdopt, n.handleAdopt)
	host.Handle(MStatus, n.handleStatus)
	host.Handle(MCkpt, n.handleCheckpoint)
	host.Handle(MProbe, n.handleProbe)
	host.Handle(MTrust, n.handleTrust)
	host.Handle(MStats, n.handleStats)
	host.Handle(MTrace, n.handleTrace)
	host.Handle(MReplicas, n.handleReplicas)
	host.Handle(MHealth, n.handleHealth)
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
	for i, it := range b.Items {
		if err := n.ownJob(rt, it.Prof, it.TC); err != nil {
			var ra *RetryAfterError
			if !errors.As(err, &ra) {
				return nil, err
			}
			out[i].RetryAfterMS = ra.After.Milliseconds()
			continue
		}
		out[i].Reps = n.replTargets()
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
func (n *Node) admitOwnLocked() error {
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

// ownJob records ownership and starts matchmaking asynchronously so the
// injection path acknowledges quickly. It returns a *RetryAfterError
// when the bounded inject queue is full (nothing recorded). Recovery
// paths (adoption, promotion) do not come through here and are never
// shed.
func (n *Node) ownJob(rt transport.Runtime, prof Profile, tc obs.TC) error {
	n.mu.Lock()
	if _, dup := n.owned[prof.ID]; dup {
		n.mu.Unlock()
		return nil
	}
	if err := n.admitOwnLocked(); err != nil {
		n.mu.Unlock()
		n.emit(tc, n.jobEvent(EvInjectRejected, prof, rt.Now()), "", "")
		return err
	}
	job := &ownedJob{prof: prof, lastHB: rt.Now(), matching: true, tc: tc}
	if n.cfg.votingOn() {
		job.matching = false
		job.vote = newVoteState()
		job.vote.filling = true
	}
	n.owned[prof.ID] = job
	n.mu.Unlock()
	n.emit(tc, n.jobEvent(EvOwned, prof, rt.Now()), "", "")
	n.notifyTransition(rt.Now(), prof, EvOwned, n.host.Addr(), 0)
	n.republish(prof.ID)
	if job.vote != nil {
		n.host.Go("grid.match", func(rt transport.Runtime) {
			n.fillReplicas(rt, prof.ID)
		})
		return nil
	}
	n.host.Go("grid.match", func(rt transport.Runtime) {
		n.matchAndAssign(rt, prof.ID)
	})
	return nil
}

// matchAndAssign chooses a run node for an owned job and hands the job
// to it, retrying with exclusions on assignment failure.
func (n *Node) matchAndAssign(rt transport.Runtime, jobID ids.ID) {
	defer func() {
		n.mu.Lock()
		if job, ok := n.owned[jobID]; ok {
			job.matching = false
		}
		n.mu.Unlock()
	}()
	// demoted: candidates whose breaker was open, left out for the rest
	// of this round only (see placeOne).
	var demoted []transport.Addr
	for tries := 0; tries < n.cfg.MaxRematch; tries++ {
		n.mu.Lock()
		job, ok := n.owned[jobID]
		if !ok {
			n.mu.Unlock()
			return
		}
		prof := job.prof
		tc := job.tc
		excluded := append([]transport.Addr(nil), job.excluded...)
		excluded = append(excluded, demoted...)
		ckpt := job.ckpt
		n.mu.Unlock()

		run, tc, res := n.placeOne(rt, jobID, prof, tc, ckpt, excluded)
		switch res {
		case skipped:
			demoted = append(demoted, run)
			continue
		case refused:
			n.republish(jobID)
			continue
		case unmatched:
			continue
		}
		n.mu.Lock()
		if job, ok := n.owned[jobID]; ok {
			job.run = run
			job.matched = true
			job.lastHB = rt.Now()
			job.tc = tc
		}
		n.mu.Unlock()
		n.notifyTransition(rt.Now(), prof, EvMatched, run, 0)
		n.republish(jobID)
		return
	}
	n.mu.Lock()
	job, ok := n.owned[jobID]
	var prof Profile
	var tc obs.TC
	if ok {
		prof = job.prof
		tc = job.tc
		delete(n.owned, jobID)
	}
	n.mu.Unlock()
	if ok {
		n.emit(tc, n.jobEvent(EvGaveUp, prof, rt.Now()), "", "")
		n.notifyTransition(rt.Now(), prof, EvGaveUp, n.host.Addr(), 0)
		n.retire(rt.Now(), jobID)
	}
}

// placement is what one candidate step of a placement loop came to.
type placement int

const (
	placed    placement = iota // the candidate acknowledged the assignment
	unmatched                  // the matcher found nobody; the step slept MatchRetryEvery
	skipped                    // the candidate's breaker is open
	refused                    // the assignment failed; the candidate is on job.excluded
)

// placeOne is one candidate step of matchAndAssign and fillReplicas:
// match a run node outside exclude, skip it if its transport breaker
// is open, trace "assigning", assign locally or by RPC, and emit
// EvMatched. Only a real assign failure records the candidate on the
// job's exclusions. A skipped one is left out for the caller's round
// only, so a peer is eligible again the moment its circuit closes; a
// skip spends no assignment attempt and no call timeout.
func (n *Node) placeOne(rt transport.Runtime, jobID ids.ID, prof Profile, tc obs.TC, ckpt Checkpoint, exclude []transport.Addr) (transport.Addr, obs.TC, placement) {
	run, stats, err := n.matcher.FindRunNode(rt, prof.Cons, exclude)
	if err != nil {
		ev := n.jobEvent(EvMatchFailed, prof, rt.Now())
		ev.Match = stats
		n.emit(tc, ev, "", "")
		rt.Sleep(n.cfg.MatchRetryEvery)
		return "", tc, unmatched
	}
	if n.peerDown(run) {
		return run, tc, skipped
	}
	// The "assigning" trace step is recorded before the assignment so
	// the run node's "enqueued" hop sorts strictly after it; "matched"
	// follows only once the run node has acknowledged.
	tc = n.trace(tc, rt.Now(), "assigning", prof.Attempt, run, "")
	req := AssignReq{Prof: prof, Owner: n.host.Addr(), Ckpt: ckpt, Reps: n.replTargets(), TC: tc}
	var assignErr error
	if run == n.host.Addr() {
		_, assignErr = n.assign(rt, req)
	} else {
		_, assignErr = rt.Call(run, MAssign, req)
	}
	if assignErr != nil {
		n.mu.Lock()
		if job, ok := n.owned[jobID]; ok {
			job.excluded = append(job.excluded, run)
		}
		n.mu.Unlock()
		return run, tc, refused
	}
	ev := n.jobEvent(EvMatched, prof, rt.Now())
	ev.Match = stats
	tc = n.emit(tc, ev, run, n.traceNote("hops=%d visits=%d", stats.Hops, stats.Visits))
	return run, tc, placed
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

// deadRun is one job whose run node was declared dead, with the
// profile (and salvageable checkpoint progress) captured under the
// same lock that scanned it.
type deadRun struct {
	id    ids.ID
	prof  Profile
	run   transport.Addr // the run node declared dead
	tc    obs.TC
	saved time.Duration
}

// monitorTick performs one owner-monitor pass. The profile of every
// job marked for rematch is captured inside the scan's critical
// section: a concurrent handleComplete/tryRelay may delete the job
// between the scan and the rematch spawn, so the owned map must not be
// re-read afterwards.
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
			rematch = append(rematch, deadRun{id: id, prof: job.prof, run: job.run, tc: job.tc, saved: job.ckpt.Done})
			job.excluded = append(job.excluded, job.run)
			job.matched = false
			job.matching = true
		}
	}
	n.mu.Unlock()
	for _, d := range deadReps {
		n.emit(d.tc, n.jobEvent(EvRunFailureDetected, d.prof, now), d.run, "")
		n.notifyTransition(now, d.prof, EvRunFailureDetected, d.run, 0)
		n.republish(d.id)
	}
	for _, d := range rematch {
		ev := n.jobEvent(EvRunFailureDetected, d.prof, now)
		ev.Progress = d.saved
		n.emit(d.tc, ev, d.run, n.traceNote("saved=%s", d.saved))
		n.notifyTransition(now, d.prof, EvRunFailureDetected, d.run, d.saved)
		n.republish(d.id)
		id := d.id
		n.host.Go("grid.rematch", func(rt transport.Runtime) {
			n.matchAndAssign(rt, id)
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
	var clientAddr transport.Addr
	var tc obs.TC
	if ok {
		clientAddr = job.prof.Client
		tc = job.tc
	}
	n.mu.Unlock()
	if !ok {
		return
	}
	tc = n.trace(tc, rt.Now(), "result-relayed", res.Attempt, clientAddr, "")
	if _, err := rt.Call(clientAddr, MResult, ResultReq{Res: res, TC: tc}); err == nil {
		n.mu.Lock()
		delete(n.owned, res.JobID)
		n.mu.Unlock()
		n.retire(rt.Now(), res.JobID)
		return
	}
	n.mu.Lock()
	job, ok = n.owned[res.JobID]
	var prof Profile
	gaveUp := false
	if ok {
		job.relayTries++
		if job.relayTries >= n.cfg.ResultRetries {
			prof = job.prof
			delete(n.owned, res.JobID)
			gaveUp = true
		}
	}
	n.mu.Unlock()
	if gaveUp {
		n.emit(tc, n.jobEvent(EvGaveUp, prof, rt.Now()), "", "")
		n.notifyTransition(rt.Now(), prof, EvGaveUp, n.host.Addr(), 0)
		n.retire(rt.Now(), res.JobID)
	}
}

func (n *Node) handleComplete(rt transport.Runtime, from transport.Addr, req any) (any, error) {
	c := req.(CompleteReq)
	n.mu.Lock()
	job, ok := n.owned[c.JobID]
	if ok && job.vote != nil {
		evs, fill := n.applyVoteLocked(rt.Now(), job, c)
		jobTC := job.tc
		prof := job.prof
		n.mu.Unlock()
		// The votes chain off the replica's incoming context, falling
		// back to the owner's stored one for untraced senders.
		tc := c.TC
		if tc.Zero() {
			tc = jobTC
		}
		for _, ev := range evs {
			peer := ev.Node
			if peer == n.host.Addr() {
				peer = ""
			}
			tc = n.emit(tc, ev, peer, "")
			n.notifyTransition(ev.At, prof, ev.Kind, c.Run, 0)
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
	if ok && (job.isExcluded(c.Run) || (job.matched && job.run != c.Run)) {
		n.mu.Unlock()
		return CompleteResp{}, nil
	}
	var tc obs.TC
	if ok {
		tc = c.TC
		if tc.Zero() {
			tc = job.tc
		}
	}
	retired := ok && job.relay == nil
	if retired {
		delete(n.owned, c.JobID)
	}
	n.mu.Unlock()
	if ok {
		n.emit(tc, n.jobEvent(EvCompleted, job.prof, rt.Now()), c.Run, "")
		n.notifyTransition(rt.Now(), job.prof, EvCompleted, c.Run, 0)
	}
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
	fill := false
	if job, dup := n.owned[a.Prof.ID]; dup {
		if !a.TC.Zero() {
			job.tc = a.TC
		}
		if job.vote != nil {
			// The surviving run node re-registers as one replica of the
			// restarted vote.
			adoptReplicaLocked(job, a.Run, rt.Now())
		} else {
			// Already owned (a duplicated adopt, or the run node re-routed
			// to an owner that already tracks the job): keep the existing
			// record, but absorb any fresher checkpoint the run node sent.
			job.absorbCkpt(a.Ckpt)
		}
	} else if n.cfg.votingOn() {
		// Owner failover under redundant execution: the dead owner's
		// vote state (partial tallies) is lost. The adopting owner
		// restarts the vote seeded with this surviving replica; other
		// survivors re-register through their own adopt calls, and the
		// filler tops the set back up to R.
		fill = true
		job := n.newVotingJobLocked(a.Prof)
		job.tc = a.TC
		adoptReplicaLocked(job, a.Run, rt.Now())
		n.owned[a.Prof.ID] = job
	} else {
		job := &ownedJob{
			prof:    a.Prof,
			run:     a.Run,
			matched: true,
			lastHB:  rt.Now(),
			tc:      a.TC,
		}
		job.absorbCkpt(a.Ckpt)
		n.owned[a.Prof.ID] = job
	}
	n.mu.Unlock()
	n.emit(a.TC, n.jobEvent(EvOwnerAdopted, a.Prof, rt.Now()), a.Run, "")
	n.notifyTransition(rt.Now(), a.Prof, EvOwnerAdopted, a.Run, 0)
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
		n.notifyTransition(rt.Now(), prof, EvCheckpointed, c.Run, c.Ckpt.Done)
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
