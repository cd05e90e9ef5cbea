package grid

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/workload"
)

// --- run-node role ---

// handleAssign validates and enqueues a job.
func (n *Node) handleAssign(rt transport.Runtime, from transport.Addr, raw any) (any, error) {
	req := raw.(AssignReq)
	if !req.Prof.Cons.SatisfiedBy(n.caps, n.os) {
		return nil, fmt.Errorf("%w: %s on %s", ErrConstraints, req.Prof.Cons, n.host.Addr())
	}
	// An assignment carrying saved progress means a previous run node
	// died mid-job — a failure observation for the adaptive interval.
	if !req.Ckpt.Zero() {
		n.noteFailureSignal(rt.Now())
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	// Idempotence: re-assignment of a job we already hold just updates
	// the owner and its replica chain (both may have changed after
	// adoption). Local progress is at least as fresh as the owner's
	// copy, so the attached checkpoint is ignored.
	if n.running != nil && n.running.prof.ID == req.Prof.ID {
		n.running.owner = req.Owner
		n.running.reps = req.Reps
		return AssignResp{Position: 0}, nil
	}
	for i, q := range n.queue {
		if q.prof.ID == req.Prof.ID {
			q.owner = req.Owner
			q.reps = req.Reps
			return AssignResp{Position: i + 1}, nil
		}
	}
	q := &queuedJob{prof: req.Prof, owner: req.Owner, reps: req.Reps, enqueuedAt: rt.Now()}
	if !req.Ckpt.Zero() && req.Ckpt.Attempt == req.Prof.Attempt {
		// Resume seed: the owner already holds this snapshot, so it is
		// born shipped.
		q.ckpt = req.Ckpt
		q.shippedDone = req.Ckpt.Done
	}
	n.queue = append(n.queue, q)
	n.queueCond.Broadcast()
	pos := len(n.queue)
	if n.running != nil {
		pos++
	}
	q.tc = n.emit(req.TC, n.jobEvent(EvEnqueued, req.Prof, rt.Now()), req.Owner, n.traceNote("pos=%d", pos))
	return AssignResp{Position: pos}, nil
}

// execLoop is the run node's executor: one job at a time, FIFO by
// default, least-served-client-first under the FairShare extension.
func (n *Node) execLoop(rt transport.Runtime) {
	served := make(map[transport.Addr]int)
	for {
		job := n.dequeue(rt, served)
		started := rt.Now()
		n.om.queueWait.Observe((started - job.enqueuedAt).Seconds())
		// Only this goroutine writes a running job's tc; readers hold n.mu.
		ev := n.jobEvent(EvStarted, job.prof, started)
		ev.Progress = job.ckpt.Done
		tc := n.emit(job.tc, ev, "", "")
		n.mu.Lock()
		job.tc = tc
		n.mu.Unlock()
		n.notifyTransition(started, job.prof, EvStarted, n.host.Addr(), ev.Progress)
		n.executeAndReport(rt, job, started)
	}
}

// dequeue waits until the run queue holds a job, then makes the
// discipline's pick the running job.
func (n *Node) dequeue(rt transport.Runtime, served map[transport.Addr]int) *queuedJob {
	n.mu.Lock()
	defer n.mu.Unlock()
	for len(n.queue) == 0 {
		rt.Wait(&n.queueCond, transport.Forever)
	}
	pick := 0
	if n.cfg.FairShare {
		for i, q := range n.queue {
			if served[q.prof.Client] < served[n.queue[pick].prof.Client] {
				pick = i
			}
		}
	}
	job := n.queue[pick]
	n.queue = append(n.queue[:pick], n.queue[pick+1:]...)
	n.running = job
	served[job.prof.Client]++
	return job
}

// execTime returns the job's execution duration on this node.
func (n *Node) execTime(prof Profile) time.Duration {
	if !n.cfg.SpeedScaling {
		return prof.Work
	}
	speed := n.caps[0]
	if speed < 0.1 {
		speed = 0.1
	}
	return time.Duration(float64(prof.Work) / speed)
}

// executeAndReport runs one job to completion and hands its result to
// a grid.report activity, returning as soon as the result exists.
func (n *Node) executeAndReport(rt transport.Runtime, job *queuedJob, started time.Duration) {
	outKB := job.prof.OutputKB
	execErr := ""
	aborted := false
	if n.cfg.Executor != nil {
		// Live executors are one-shot computations; the checkpoint
		// subsystem covers the simulated (resumable) execution path.
		kb, err := n.cfg.Executor(job.prof)
		if err != nil {
			execErr = err.Error()
		} else {
			outKB = kb
		}
	} else {
		aborted = n.executeSliced(rt, job)
	}
	finished := rt.Now()

	// The result digest fingerprints what the computation determined; a
	// Byzantine node corrupts it (distinctly per saboteur) or withholds
	// the result entirely.
	digest := ResultDigest(job.prof.Client, job.prof.Seq, outKB, execErr)
	wrong, withhold := false, false
	if n.cfg.Byzantine != nil {
		wrong, withhold = n.cfg.Byzantine(job.prof.ID, job.prof.Attempt)
	}
	if wrong {
		digest = CorruptDigest(digest, n.host.Addr())
	}

	n.om.runSeconds.Observe((finished - started).Seconds())
	n.mu.Lock()
	dropped := job.dropped || aborted
	n.running = nil
	owner := job.owner
	tc := job.tc
	n.mu.Unlock()
	if dropped {
		// The owner reassigned this job while we ran it; discard.
		return
	}
	if withhold {
		// Result withholding: the job ran to completion but the
		// saboteur reports nothing and stops heartbeating it. To the
		// owner this replica now looks crashed — the heartbeat timeout
		// disavows it and recruits a replacement.
		return
	}
	n.mu.Lock()
	n.Completed++
	n.mu.Unlock()
	tc = n.trace(tc, finished, "executed", job.prof.Attempt, "", n.traceNote("out_kb=%d", outKB))

	res := Result{
		JobID:    job.prof.ID,
		Attempt:  job.prof.Attempt,
		RunNode:  n.host.Addr(),
		Started:  started,
		Finished: finished,
		OutputKB: outKB,
		Err:      execErr,
		Digest:   digest,
	}
	if job.prof.CarryOutput && execErr == "" {
		// Stage output for workflow data passing: a pure function of the
		// submission identity and input bytes, so every attempt on every
		// run node derives identical bytes (resubmission-safe).
		res.Data = StageOutput(job.prof)
	}
	// The executor is done with this job: the result goes out beside
	// the next one, so the run queue never waits on the network.
	prof := job.prof
	n.host.Go("grid.report", func(rt transport.Runtime) { n.report(rt, prof, owner, res, tc) })
}

// report hands one finished job's result on, in its own activity: a
// vote to the owner under redundant execution, otherwise delivery to
// the client and then completion at the owner.
func (n *Node) report(rt transport.Runtime, prof Profile, owner transport.Addr, res Result, tc obs.TC) {
	if n.cfg.votingOn() {
		// Redundant execution: the replica does not deliver to the
		// client; its completion IS its vote, and the owner delivers
		// the quorum winner.
		n.reportVote(rt, owner, res, tc)
		return
	}
	// Deliver the result first, then release the owner: completing
	// before delivery would make the owner forget the job and lose the
	// relay fallback.
	delivered, tc := n.deliverResult(rt, prof, owner, res, tc)
	if delivered {
		_, _ = n.call(rt, owner, MComplete, CompleteReq{JobID: res.JobID, Run: n.host.Addr(), TC: tc})
	}
}

// reportVote sends a replica's completion vote (digest + full result)
// to the owner, with bounded retries. If the owner stays unreachable
// the vote is abandoned: the heartbeat loop's owner-failure path finds
// the successor owner, and the client monitor resubmits if the whole
// vote was lost.
func (n *Node) reportVote(rt transport.Runtime, owner transport.Addr, res Result, tc obs.TC) {
	req := CompleteReq{JobID: res.JobID, Run: n.host.Addr(), Digest: res.Digest, Res: res, TC: tc}
	for try := 0; try < n.cfg.ResultRetries; try++ {
		if _, err := n.call(rt, owner, MComplete, req); err == nil {
			return
		}
		rt.Sleep(time.Second)
	}
}

// executeSliced performs the job's resumable work in bounded slices:
// it resumes from any checkpoint attached to the assignment, snapshots
// progress at the (possibly adaptive) checkpoint interval, counts
// executed work for waste accounting, and aborts between slices when
// the owner has disavowed the job. It reports whether the execution
// was aborted.
func (n *Node) executeSliced(rt transport.Runtime, job *queuedJob) bool {
	total := job.prof.Work
	sw := workload.NewSliceWork(total)
	if len(job.prof.Input) > 0 {
		// Cross-stage data passing: upstream output seeds the resumable
		// state before execution, so the first snapshot already embeds
		// the inherited bytes and recovery ships them like any other
		// checkpoint data. A genuine resume below overrides this — its
		// Data evolved from the same seed.
		sw.SetState(append([]byte(nil), job.prof.Input...))
	}
	n.mu.Lock()
	seed := job.ckpt
	n.mu.Unlock()
	if !seed.Zero() && seed.Attempt == job.prof.Attempt {
		if err := sw.ResumeFrom(workload.Snapshot{Done: seed.Done, Data: seed.Data}); err == nil {
			ev := n.jobEvent(EvResumed, job.prof, rt.Now())
			ev.Progress = seed.Done
			tc := n.emit(job.tc, ev, "", n.traceNote("done=%s", seed.Done))
			n.mu.Lock()
			job.tc = tc
			n.mu.Unlock()
		}
	}
	// Execution seconds per nominal work second (SpeedScaling support:
	// snapshots stay in portable nominal-work units).
	scale := 1.0
	if total > 0 {
		scale = float64(n.execTime(job.prof)) / float64(total)
	}
	nextCkpt := rt.Now() + n.ckptInterval(rt.Now(), job.prof.CkptBias)
	for !sw.Finished() {
		// The execution-accounting quantum is one heartbeat period, so
		// executed-work accounting and drop-aborts lag by at most that.
		quantum := n.cfg.HeartbeatEvery
		if rem := sw.Remaining(); quantum > rem {
			quantum = rem
		}
		rt.Sleep(time.Duration(float64(quantum) * scale))
		sw.Advance(quantum)
		n.mu.Lock()
		n.Executed += quantum
		n.executedBy[job.prof.ID] += quantum
		dropped := job.dropped
		n.mu.Unlock()
		if dropped {
			return true
		}
		if n.ckptEnabled() && !sw.Finished() && rt.Now() >= nextCkpt {
			snap := sw.Progress()
			ck := Checkpoint{
				JobID: job.prof.ID, Attempt: job.prof.Attempt, Run: n.host.Addr(),
				Done: snap.Done, Data: snap.Data, At: rt.Now(),
			}
			n.om.ckptBytes.Observe(float64(len(snap.Data)))
			ev := n.jobEvent(EvCheckpointed, job.prof, rt.Now())
			ev.Progress = snap.Done
			tc := n.emit(job.tc, ev, "", n.traceNote("done=%s bytes=%d", snap.Done, len(snap.Data)))
			n.mu.Lock()
			job.ckpt = ck
			job.tc = tc
			n.mu.Unlock()
			nextCkpt = rt.Now() + n.ckptInterval(rt.Now(), job.prof.CkptBias)
		}
	}
	return false
}

// deliverResult returns the result to the client directly, falling back
// to relaying through the owner — the owner is "responsible for ...
// ensuring that its results are returned to the client". It reports
// whether direct delivery succeeded; on the relay path the owner keeps
// the job until its own delivery attempt lands.
func (n *Node) deliverResult(rt transport.Runtime, prof Profile, owner transport.Addr, res Result, tc obs.TC) (bool, obs.TC) {
	if prof.Client == n.host.Addr() {
		return true, n.acceptResult(rt, res, tc)
	}
	tc = n.trace(tc, rt.Now(), "result-sent", prof.Attempt, prof.Client, "")
	for try := 0; try < n.cfg.ResultRetries; try++ {
		if _, err := rt.Call(prof.Client, MResult, ResultReq{Res: res, TC: tc}); err == nil {
			return true, tc
		}
		rt.Sleep(time.Second)
	}
	tc = n.trace(tc, rt.Now(), "relay-requested", prof.Attempt, owner, "")
	_, _ = n.call(rt, owner, MRelay, RelayReq{Res: res, TC: tc})
	return false, tc
}

// heartbeatLoop implements the paper's soft-state heartbeats: every
// period, the run node reports each job in its queue (including jobs
// not yet running) to that job's owner over a direct connection. If an
// owner stays unreachable beyond OwnerDeadAfter, the run node routes
// the job's GUID to find the new owner and asks it to adopt the job.
func (n *Node) heartbeatLoop(rt transport.Runtime) {
	ownerSilentSince := make(map[transport.Addr]time.Duration)
	for {
		rt.Sleep(n.cfg.HeartbeatEvery)
		now := rt.Now()

		n.mu.Lock()
		byOwner := make(map[transport.Addr][]ids.ID)
		profs := make(map[ids.ID]Profile)
		tcs := make(map[ids.ID]obs.TC)
		reps := make(map[ids.ID][]transport.Addr)
		jobs := make([]*queuedJob, 0, len(n.queue)+1)
		if n.running != nil {
			jobs = append(jobs, n.running)
		}
		jobs = append(jobs, n.queue...)
		for _, q := range jobs {
			byOwner[q.owner] = append(byOwner[q.owner], q.prof.ID)
			profs[q.prof.ID] = q.prof
			tcs[q.prof.ID] = q.tc
			reps[q.prof.ID] = q.reps
		}
		n.mu.Unlock()

		// Fresh checkpoints ride the same round: each owner's heartbeat
		// piggybacks snapshots up to the payload cap; oversized ones go
		// in standalone grid.checkpoint calls after the heartbeat.
		pending := n.collectPendingCkpts(jobs)
		piggy := make(map[transport.Addr][]pendingCkpt)
		oversize := make(map[transport.Addr][]pendingCkpt)
		for _, p := range pending {
			budget := checkpointPiggybackKB * 1024
			used := 0
			for _, prev := range piggy[p.owner] {
				used += len(prev.ckpt.Data)
			}
			if len(p.ckpt.Data) <= budget-used {
				piggy[p.owner] = append(piggy[p.owner], p)
			} else {
				oversize[p.owner] = append(oversize[p.owner], p)
			}
		}

		owners := make([]transport.Addr, 0, len(byOwner))
		for o := range byOwner {
			owners = append(owners, o)
		}
		sort.Slice(owners, func(i, j int) bool { return owners[i] < owners[j] })

		for _, owner := range owners {
			jobIDs := byOwner[owner]
			req := HeartbeatReq{Run: n.host.Addr(), Jobs: jobIDs}
			for _, p := range piggy[owner] {
				req.Ckpts = append(req.Ckpts, p.ckpt)
			}
			n.om.hbSent.Inc()
			resp, err := n.call(rt, owner, MHeartbeat, req)
			if err != nil {
				n.om.hbFailed.Inc()
				if _, ok := ownerSilentSince[owner]; !ok {
					ownerSilentSince[owner] = now
				} else if now-ownerSilentSince[owner] > n.cfg.OwnerDeadAfter {
					delete(ownerSilentSince, owner)
					n.noteFailureSignal(now)
					for _, id := range jobIDs {
						tc := n.emit(tcs[id], n.jobEvent(EvOwnerFailureDetected, profs[id], now), owner, "")
						n.reassignOwner(rt, profs[id], owner, reps[id], tc)
					}
				}
				continue
			}
			n.om.hbAcked.Inc()
			delete(ownerSilentSince, owner)
			for _, p := range piggy[owner] {
				n.markShipped(p)
			}
			for _, p := range oversize[owner] {
				ckReq := CheckpointReq{Run: n.host.Addr(), Ckpt: p.ckpt, TC: p.tc}
				if _, err := n.call(rt, owner, MCkpt, ckReq); err == nil {
					n.markShipped(p)
				}
			}
			hb := resp.(HeartbeatResp)
			if len(hb.Drop) > 0 {
				n.dropJobs(hb.Drop)
			}
		}
	}
}

// reassignOwner finds a new owner for a job whose owner went silent and
// asks it to adopt; the run node then reports heartbeats there. With
// replication on, the dead owner's replica chain (shipped with the
// assignment) is tried first, in rank order: those nodes hold the job's
// replicated state, and the replica layer's rank-based promotion elects
// from the same list — offering adoption there makes both recovery
// paths converge on one owner instead of racing a walk-routed stranger
// against the promoting replica (double owners, fencing, wasted work).
// Only when the whole chain is unreachable does the run node fall back
// to routing the job's GUID through the overlay.
func (n *Node) reassignOwner(rt transport.Runtime, prof Profile, deadOwner transport.Addr, reps []transport.Addr, tc obs.TC) {
	// The adoption request carries our newest snapshot so the new owner
	// starts with the dead owner's replicated progress, not zero.
	ckpt := n.localCkpt(prof.ID)
	for _, rep := range reps {
		if rep == deadOwner {
			continue
		}
		var ok bool
		if tc, ok = n.tryAdopt(rt, prof, rep, ckpt, tc); ok {
			return
		}
	}
	routed := n.overlay.RouteJobs(rt, []Profile{prof})[0]
	if routed.Err != nil || routed.Owner == deadOwner {
		return // retry on a later heartbeat round
	}
	n.tryAdopt(rt, prof, routed.Owner, ckpt, tc)
}

// tryAdopt offers a job to one adoption candidate (this node itself
// included) and, on success, repoints the held job's heartbeats at it.
// It returns the advanced trace context and whether the adoption
// landed.
func (n *Node) tryAdopt(rt transport.Runtime, prof Profile, newOwner transport.Addr, ckpt Checkpoint, tc obs.TC) (obs.TC, bool) {
	tc = n.trace(tc, rt.Now(), "adopt-requested", prof.Attempt, newOwner, "")
	if _, err := n.call(rt, newOwner, MAdopt, AdoptReq{Prof: prof, Run: n.host.Addr(), Ckpt: ckpt, TC: tc}); err != nil {
		return tc, false
	}
	n.mu.Lock()
	if n.running != nil && n.running.prof.ID == prof.ID {
		n.running.owner = newOwner
	}
	for _, q := range n.queue {
		if q.prof.ID == prof.ID {
			q.owner = newOwner
			q.tc = tc
			// The new owner holds whatever the adoption carried.
			if !ckpt.Zero() && ckpt.Done > q.shippedDone {
				q.shippedDone = ckpt.Done
			}
		}
	}
	n.mu.Unlock()
	return tc, true
}

// localCkpt returns this node's newest snapshot for a held job, or a
// zero checkpoint when the job is unknown or has no saved progress.
func (n *Node) localCkpt(id ids.ID) Checkpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.running != nil && n.running.prof.ID == id {
		return n.running.ckpt
	}
	for _, q := range n.queue {
		if q.prof.ID == id {
			return q.ckpt
		}
	}
	return Checkpoint{}
}

// dropJobs removes queued jobs the owner disavowed; a currently-running
// job is marked so its result is discarded.
func (n *Node) dropJobs(drop []ids.ID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	dropSet := make(map[ids.ID]bool, len(drop))
	for _, id := range drop {
		dropSet[id] = true
	}
	kept := n.queue[:0]
	for _, q := range n.queue {
		if dropSet[q.prof.ID] {
			q.dropped = true
			continue
		}
		kept = append(kept, q)
	}
	n.queue = kept
	if n.running != nil && dropSet[n.running.prof.ID] {
		n.running.dropped = true
	}
}
