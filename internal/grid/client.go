package grid

import (
	"sort"
	"time"

	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/resource"
	"repro/internal/transport"
)

// --- client role ---

// JobSpec is a client-side job description.
type JobSpec struct {
	Cons     resource.Constraints
	Work     time.Duration
	InputKB  int
	OutputKB int
	// Input is the job's input payload: the run node seeds its
	// resumable state from these bytes, and recovery ships them onward
	// inside ordinary checkpoints (see Profile.Input). The flow engine
	// sets it to the delivered output of the stage's dependencies.
	Input []byte
	// CkptBias is the workflow-aware checkpoint hint (Profile.CkptBias);
	// honored only under Config.CheckpointWorkflowAware.
	CkptBias float64
	// CarryOutput asks the run node to attach the job's derived output
	// bytes to the delivered Result (Profile.CarryOutput).
	CarryOutput bool
}

// Submit inserts a new job through this node acting as its own
// injection node, and tracks it for resubmission. It returns the job's
// GUID. A single submission is a batch of one.
func (n *Node) Submit(rt transport.Runtime, spec JobSpec) (ids.ID, error) {
	jobIDs, err := n.SubmitAll(rt, []JobSpec{spec})
	return jobIDs[0], err
}

// SubmitAll inserts many jobs at once: one routing step per job, then
// one grid.ownbatch handoff per distinct owner instead of one round
// trip per job. Every job is registered for monitoring before
// injection, so jobs whose inject attempts all fail are still recovered
// by the client monitor. It returns a GUID per spec, positionally, plus
// the first inject error (informational — the monitor will resubmit
// those jobs).
func (n *Node) SubmitAll(rt transport.Runtime, specs []JobSpec) ([]ids.ID, error) {
	n.mu.Lock()
	base := n.clientSeq
	n.clientSeq += len(specs)
	n.mu.Unlock()
	reqs := make([]InjectReq, len(specs))
	for i, spec := range specs {
		reqs[i] = n.prepareSubmit(rt, spec, base+i+1, 0)
	}
	return n.injectAll(rt, reqs)
}

// prepareSubmit registers the pending entry and records the submission
// before anything touches the network, so the client monitor can
// recover the job even if every inject attempt afterwards fails.
func (n *Node) prepareSubmit(rt transport.Runtime, spec JobSpec, seq, attempt int) InjectReq {
	req := InjectReq{
		Client:      n.host.Addr(),
		Seq:         seq,
		Attempt:     attempt,
		Cons:        spec.Cons,
		Work:        spec.Work,
		InputKB:     spec.InputKB,
		OutputKB:    spec.OutputKB,
		Input:       spec.Input,
		CkptBias:    spec.CkptBias,
		CarryOutput: spec.CarryOutput,
	}
	jobID := JobGUID(req.Client, seq, attempt)
	n.mu.Lock()
	n.pending[jobID] = &pendingJob{
		seq:         seq,
		attempt:     attempt,
		cons:        spec.Cons,
		work:        spec.Work,
		inputKB:     spec.InputKB,
		outputKB:    spec.OutputKB,
		input:       spec.Input,
		ckptBias:    spec.CkptBias,
		carryOutput: spec.CarryOutput,
		submitAt:    rt.Now(),
	}
	n.mu.Unlock()
	// With push notifications on, subscribe to the lineage topic once,
	// at the first attempt; resubmissions publish to the same topic, so
	// the subscription spans them. The broker only queues the intent
	// here — the subscribe RPC goes out on its own activities.
	if n.cfg.Notify != nil && attempt == 0 {
		n.cfg.Notify.Subscribe(NotifyTopic(req.Client, seq))
	}
	// The trace spans the whole lineage: its ID is the attempt-0 GUID,
	// so resubmissions chain onto the same trace.
	// Seq and the expected digest give collectors a ground-truth channel:
	// the digest an honest execution of this job must produce, compared
	// against EvResultDelivered's digest to count accepted-wrong results.
	req.TC = n.emit(obs.TC{ID: TraceID(req.Client, seq)}, Event{
		Kind: EvSubmitted, JobID: jobID, Attempt: attempt, At: rt.Now(), Node: n.host.Addr(),
		Seq: seq, Digest: ResultDigest(req.Client, seq, spec.OutputKB, ""),
	}, "", n.traceNote("work=%s", spec.Work))
	return req
}

const (
	// injectRetries bounds one submission's retry loop (total attempts);
	// the client monitor resubmits what the loop gives up on.
	injectRetries = 3
	// injectBatchMax caps how many jobs one grid.injectbatch /
	// grid.ownbatch RPC carries.
	injectBatchMax = 64
)

// injectAll drives prepared submissions through InjectBatch in
// injectBatchMax chunks, re-injecting only the items that failed, for
// at most injectRetries attempts per chunk. Each round sleeps the
// longest retryWait among its failed items. Accepted jobs re-aim their
// pending entry at the owner that took them so the monitor probes the
// right place first.
func (n *Node) injectAll(rt transport.Runtime, reqs []InjectReq) ([]ids.ID, error) {
	jobIDs := make([]ids.ID, len(reqs))
	var firstErr error
	for lo := 0; lo < len(reqs); lo += injectBatchMax {
		hi := lo + injectBatchMax
		if hi > len(reqs) {
			hi = len(reqs)
		}
		chunk := reqs[lo:hi]
		results := n.InjectBatch(rt, chunk)
		for tries := 1; tries < injectRetries; tries++ {
			var retry []int
			var wait time.Duration
			for i, res := range results {
				if w := retryWait(rt, res); w > 0 {
					retry = append(retry, i)
					if w > wait {
						wait = w
					}
				}
			}
			if len(retry) == 0 {
				break
			}
			rt.Sleep(wait)
			sub := make([]InjectReq, len(retry))
			for k, i := range retry {
				sub[k] = chunk[i]
			}
			for k, res := range n.InjectBatch(rt, sub) {
				results[retry[k]] = res
			}
		}
		n.mu.Lock()
		for k, res := range results {
			jobIDs[lo+k] = res.JobID
			if err := res.resultErr(); err != nil {
				if firstErr == nil {
					firstErr = err
				}
			} else if pp, ok := n.pending[res.JobID]; ok {
				pp.owner = res.Owner
				pp.reps = res.Reps
			}
		}
		n.mu.Unlock()
	}
	return jobIDs, firstErr
}

// retryWait is the submit path's one retry decision: how long to wait
// before re-injecting an item that came back as res, or 0 when it was
// accepted. An owner's backpressure rejection honors the hint plus
// jitter. Anything else is a routing or handoff failure: the routed
// owner candidate is likely dead, and a retry re-routes (under walk
// placement, a fresh walk) and lands elsewhere. Without the retry the
// job sits ownerless until the monitor's patience expires — a full
// patience window of latency for a submit-time failure.
func retryWait(rt transport.Runtime, res InjectResult) time.Duration {
	switch {
	case res.RetryAfterMS > 0:
		return jitterAfter(rt, time.Duration(res.RetryAfterMS)*time.Millisecond)
	case res.Err != "":
		return time.Second
	}
	return 0
}

// jitterAfter spreads retry-after waits by up to +50% so clients that
// were rejected together do not return together. The draw comes from
// the caller's runtime stream, keeping simulation deterministic.
func jitterAfter(rt transport.Runtime, after time.Duration) time.Duration {
	if after <= 0 {
		return time.Millisecond
	}
	return after + time.Duration(rt.Rand().Int63n(int64(after)/2+1))
}

// AwaitAll blocks until every job this node submitted has a result or
// the deadline passes; it returns the number still pending.
func (n *Node) AwaitAll(rt transport.Runtime, deadline time.Duration) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	for {
		waiting := n.pendingLocked()
		if waiting == 0 || rt.Now() >= deadline {
			return waiting
		}
		rt.Wait(&n.resultCond, deadline-rt.Now())
	}
}

// PendingCount returns how many submitted jobs still lack results.
func (n *Node) PendingCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.pendingLocked()
}

func (n *Node) pendingLocked() int {
	waiting := 0
	for _, p := range n.pending {
		if !p.got {
			waiting++
		}
	}
	return waiting
}

// SeqStatus is the client-visible state of one submitted job lineage,
// keyed by the client-local seq — stable across resubmissions, unlike
// the per-attempt GUID (a resubmission re-keys the pending map under a
// fresh GUID, which is exactly the bug the old workflow harvester had).
type SeqStatus struct {
	JobID    ids.ID // current attempt's GUID
	Attempt  int
	Done     bool
	Finished time.Duration // delivery instant; zero until Done
	Res      Result
}

// StatusBySeq reports the lineage with the given client-local seq.
func (n *Node) StatusBySeq(seq int) (SeqStatus, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for id, p := range n.pending {
		if p.seq != seq {
			continue
		}
		return SeqStatus{JobID: id, Attempt: p.attempt, Done: p.got, Finished: p.resultAt, Res: p.res}, true
	}
	return SeqStatus{}, false
}

// SeqFor reports the client-local seq of a job this node submitted.
// Valid for the GUID any attempt was submitted under, as long as that
// attempt is the lineage's current one.
func (n *Node) SeqFor(jobID ids.ID) (int, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if p, ok := n.pending[jobID]; ok {
		return p.seq, true
	}
	return 0, false
}

// AwaitResultEvent parks the caller until a result or push
// notification for one of this client's jobs has arrived that the
// caller has not seen, or maxWait passes (transport.Forever: no bound).
// seen is the value the previous call returned (0 on the first);
// passing it back closes the window between the caller's scan of its
// jobs and this wait: an event that lands in it makes the call return
// at once.
func (n *Node) AwaitResultEvent(rt transport.Runtime, seen uint64, maxWait time.Duration) uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.resultEvents == seen {
		rt.Wait(&n.resultCond, maxWait)
	}
	return n.resultEvents
}

func (n *Node) handleResult(rt transport.Runtime, from transport.Addr, req any) (any, error) {
	r := req.(ResultReq)
	n.acceptResult(rt, r.Res, r.TC)
	return ResultResp{}, nil
}

// acceptResult records a delivered result (first attempt wins; later
// duplicates from recovery re-runs are ignored). It returns the trace
// context after recording the delivery.
func (n *Node) acceptResult(rt transport.Runtime, res Result, tc obs.TC) obs.TC {
	n.mu.Lock()
	p, ok := n.pending[res.JobID]
	fresh := ok && !p.got
	var work time.Duration
	seq := 0
	if fresh {
		p.got = true
		p.resultAt = rt.Now()
		p.res = res
		work = p.work
		seq = p.seq
		n.resultEvents++
		n.resultCond.Broadcast()
	}
	n.mu.Unlock()
	if fresh {
		if n.cfg.Notify != nil {
			n.cfg.Notify.Unsubscribe(NotifyTopic(n.host.Addr(), seq))
		}
		if tc.Zero() {
			tc = obs.TC{ID: TraceID(n.host.Addr(), seq)}
		}
		tc = n.emit(tc, Event{
			Kind: EvResultDelivered, JobID: res.JobID, Attempt: res.Attempt,
			At: rt.Now(), Node: res.RunNode, Progress: work, Digest: res.Digest,
		}, res.RunNode, "")
	}
	return tc
}

// StartClientMonitor launches the resubmission watchdog: if a job has
// produced no result and its current owner no longer knows it (both
// owner and run node lost it), the client resubmits with a fresh GUID.
// resubmitAfter is the patience beyond the job's own expected runtime.
func (n *Node) StartClientMonitor(resubmitAfter time.Duration) {
	n.host.Go("grid.client", func(rt transport.Runtime) {
		for {
			rt.Sleep(n.cfg.HeartbeatEvery * 2)
			now := rt.Now()
			type check struct {
				id   ids.ID
				p    pendingJob
				wait time.Duration
			}
			var checks []check
			n.mu.Lock()
			for id, p := range n.pending {
				if p.got {
					continue
				}
				patience := p.work + resubmitAfter
				if now-p.submitAt <= patience {
					continue
				}
				// A recent push notification is proof of life: someone is
				// demonstrably driving the job, so grant the same patience
				// extension a Known status probe would have produced —
				// without the RPC. Polling fires only on silence.
				if n.cfg.Notify != nil && p.lastNotify > 0 && now-p.lastNotify <= n.cfg.NotifySilence {
					p.submitAt = now
					continue
				}
				checks = append(checks, check{id: id, p: *p})
			}
			n.mu.Unlock()
			// Deterministic order: map iteration would randomize which
			// job's status RPCs hit the network first (same discipline as
			// monitorTick's sorted scan of n.owned).
			sort.Slice(checks, func(i, j int) bool { return checks[i].id.Less(checks[j].id) })
			for _, c := range checks {
				n.checkAndMaybeResubmit(rt, c.id, c.p)
			}
		}
	})
}

// checkAndMaybeResubmit asks whether anyone still tracks the job; only
// when nobody answers for it is the job resubmitted as a new attempt.
// Probes go out in order of who is most likely to know: the owner
// recorded at injection (re-aimed by earlier probes), then its replica
// chain — with replication on, any surviving member keeps guarding the
// record and a promoted successor is one of them — and last the
// overlay's current routing for the GUID, which under walk placement
// lands on an arbitrary nearby node.
func (n *Node) checkAndMaybeResubmit(rt transport.Runtime, jobID ids.ID, p pendingJob) {
	probed := make(map[transport.Addr]bool, len(p.reps)+2)
	direct := make([]transport.Addr, 0, len(p.reps)+1)
	if p.owner != "" {
		direct = append(direct, p.owner)
	}
	direct = append(direct, p.reps...)
	// With transport health available, probe likely-live candidates
	// first; breaker-open peers stay in the list (their probes fail
	// fast) but no longer head-of-line block the ones that can answer.
	direct = n.demoteDown(direct)
	for _, c := range direct {
		if probed[c] {
			continue
		}
		probed[c] = true
		if n.statusKnown(rt, jobID, p, c) {
			return
		}
	}
	if routed, _, err := n.overlay.RouteJob(rt, jobID, p.cons); err == nil && !probed[routed] {
		if n.statusKnown(rt, jobID, p, routed) {
			return
		}
	}
	// Nobody owns the job anymore: resubmit under a fresh GUID.
	n.mu.Lock()
	if pp, ok := n.pending[jobID]; !ok || pp.got {
		n.mu.Unlock()
		return
	}
	delete(n.pending, jobID)
	n.mu.Unlock()
	prof := Profile{ID: jobID, Client: n.host.Addr(), Seq: p.seq, Attempt: p.attempt}
	n.emit(n.om.tracer.Context(TraceID(n.host.Addr(), p.seq)), n.jobEvent(EvResubmitted, prof, rt.Now()), "",
		n.traceNote("next_attempt=%d", p.attempt+1))
	n.notifyTransition(rt.Now(), prof, EvResubmitted, n.host.Addr(), 0)
	spec := JobSpec{
		Cons: p.cons, Work: p.work, InputKB: p.inputKB, OutputKB: p.outputKB,
		Input: p.input, CkptBias: p.ckptBias, CarryOutput: p.carryOutput,
	}
	_, _ = n.injectAll(rt, []InjectReq{n.prepareSubmit(rt, spec, p.seq, p.attempt+1)})
}

// statusKnown probes one candidate for the job's status. On a Known
// answer it re-aims the pending entry at whatever owner and replica
// chain the responder reports (empty when a replica answered on a live
// owner's behalf) and moves the job into watch cadence: a job that is
// confirmed alive but already past its expected runtime is exactly the
// one the client wants prompt news about, so instead of granting a
// whole fresh patience window the monitor re-probes once per grace
// interval until the result lands. This recurring poll traffic is what
// the notification overlay eliminates — a pushed transition inside the
// silence window skips the probe entirely.
func (n *Node) statusKnown(rt transport.Runtime, jobID ids.ID, p pendingJob, addr transport.Addr) bool {
	// The status probe carries the lineage's context for wire
	// uniformity; the responder records nothing for it (a query, not a
	// lifecycle step).
	sreq := StatusReq{JobID: jobID, TC: n.om.tracer.Context(TraceID(n.host.Addr(), p.seq))}
	n.mu.Lock()
	n.StatusProbes++
	n.mu.Unlock()
	n.om.statusProbes.Inc()
	var raw any
	var err error
	if addr == n.host.Addr() {
		raw, err = n.handleStatus(rt, n.host.Addr(), sreq)
	} else {
		raw, err = rt.Call(addr, MStatus, sreq)
	}
	if err != nil {
		return false
	}
	resp := raw.(StatusResp)
	if !resp.Known {
		return false
	}
	n.mu.Lock()
	if pp, ok := n.pending[jobID]; ok {
		// Backdate the clock by the runtime share of the patience budget
		// so only the grace (resubmitAfter) portion separates probes.
		pp.submitAt = rt.Now() - pp.work
		if resp.Owner != "" {
			pp.owner = resp.Owner
			pp.reps = resp.Reps
		}
	}
	n.mu.Unlock()
	return true
}
