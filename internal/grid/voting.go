package grid

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/transport"
)

// This file is the owner side of the sabotage-tolerance subsystem:
// redundant execution with quorum voting over result digests, plus the
// known-answer probes that spot-check blacklisted peers. A job enters
// this state machine only when Config.votingOn() — with R=1/quorum=1
// (the zero config) none of this code runs and the owner behaves
// exactly as the paper's single-execution protocol.
//
// Protocol sketch: the owner assigns the job to R distinct run nodes
// (never one already holding or previously disavowed for this job).
// Each replica's grid.complete doubles as a vote carrying the result
// digest. The first digest reaching Quorum matching votes wins: its
// result is handed to the relay machinery for client delivery, voters
// are scored against the winner (agree/disagree feeding Config.Trust),
// and still-running losers are cancelled through the usual heartbeat
// drop answer. Dead replicas (heartbeat timeout — crashes and
// result-withholders look identical) are replaced; the total number of
// assignments is bounded by MaxRematch*Replicas, after which an
// unreachable quorum gives the job up (EvQuorumFailed) and the
// client's monitor resubmits.

// replica is one run node holding a copy of a voting job.
type replica struct {
	run    transport.Addr
	lastHB time.Duration
	voted  bool
}

// voteState is the per-job voting bookkeeping hanging off ownedJob.
type voteState struct {
	reps    []*replica                // current replicas (voted ones stay)
	votes   map[string]int            // digest -> tally
	voted   map[transport.Addr]string // run node -> digest it reported
	scored  map[transport.Addr]bool   // run nodes already scored vs the winner
	assigns int                       // assignment attempts consumed
	filling bool                      // a fillReplicas proc is active
	winner  string                    // accepted digest; "" until quorum
}

func newVoteState() *voteState {
	return &voteState{
		votes:  make(map[string]int),
		voted:  make(map[transport.Addr]string),
		scored: make(map[transport.Addr]bool),
	}
}

// refresh updates a known replica's heartbeat clock, reporting whether
// the sender is one.
func (v *voteState) refresh(run transport.Addr, now time.Duration) bool {
	for _, r := range v.reps {
		if r.run == run {
			r.lastHB = now
			return true
		}
	}
	return false
}

func (v *voteState) hasReplica(run transport.Addr) bool {
	for _, r := range v.reps {
		if r.run == run {
			return true
		}
	}
	return false
}

// bestTally returns the highest vote count of any digest.
func (v *voteState) bestTally() int {
	best := 0
	for _, c := range v.votes {
		if c > best {
			best = c
		}
	}
	return best
}

// liveUnvoted counts replicas still expected to vote.
func (v *voteState) liveUnvoted() int {
	n := 0
	for _, r := range v.reps {
		if !r.voted {
			n++
		}
	}
	return n
}

// maxAssigns bounds total assignment attempts per voting job — the
// R-scaled analogue of the single-execution MaxRematch budget.
func (n *Node) maxAssigns() int { return n.cfg.MaxRematch * n.cfg.Replicas }

// quorumFeasibleLocked reports whether the current replica set can
// still reach quorum without further assignments.
func (n *Node) quorumFeasibleLocked(v *voteState) bool {
	return v.bestTally()+v.liveUnvoted() >= n.cfg.Quorum
}

// replicaNeedLocked is how many additional replicas the owner should
// recruit right now: enough to keep R copies in flight, and — after an
// all-voted split verdict — enough extra voters to break the tie.
func (n *Node) replicaNeedLocked(v *voteState) int {
	need := n.cfg.Replicas - len(v.reps)
	if tie := n.cfg.Quorum - v.bestTally() - v.liveUnvoted(); tie > need {
		need = tie
	}
	return need
}

// newVotingJobLocked builds an owner record on the voting path.
func (n *Node) newVotingJobLocked(prof Profile) *ownedJob {
	job := &ownedJob{prof: prof, vote: newVoteState()}
	job.vote.filling = true
	return job
}

// adoptReplicaLocked registers a run node as a replica of a voting job
// (the owner-failover re-registration path). Excluded senders, known
// replicas, and settled votes are left untouched.
func adoptReplicaLocked(job *ownedJob, run transport.Addr, now time.Duration) {
	v := job.vote
	if v.winner != "" || job.isExcluded(run) || v.hasReplica(run) {
		return
	}
	v.reps = append(v.reps, &replica{run: run, lastHB: now})
}

// fillReplicas is the voting analogue of matchAndAssign: it recruits
// run nodes one at a time until the job needs no more replicas, the
// vote settles, or the assignment budget runs out. Only one filler per
// job runs at a time (voteState.filling).
func (n *Node) fillReplicas(rt transport.Runtime, jobID ids.ID) {
	defer func() {
		n.mu.Lock()
		if job, ok := n.owned[jobID]; ok && job.vote != nil {
			job.vote.filling = false
		}
		n.mu.Unlock()
	}()
	// demoted: candidates whose breaker was open, left out for the rest
	// of this filler's run only (see placeOne).
	var demoted []transport.Addr
	for {
		n.mu.Lock()
		job, ok := n.owned[jobID]
		if !ok || job.vote == nil || job.vote.winner != "" {
			n.mu.Unlock()
			return
		}
		v := job.vote
		if n.replicaNeedLocked(v) <= 0 {
			n.mu.Unlock()
			return
		}
		if v.assigns >= n.maxAssigns() {
			if n.quorumFeasibleLocked(v) {
				// Out of budget but the outstanding replicas can still
				// settle the vote: wait for them (the monitor re-spawns
				// a filler only if feasibility is lost).
				n.mu.Unlock()
				return
			}
			tc := job.tc
			delete(n.owned, jobID)
			n.mu.Unlock()
			tc = n.transition(tc, voter, &job.life, job.prof, Event{Kind: EvQuorumFailed, At: rt.Now()}, "", "", "")
			n.giveUp(rt.Now(), job, tc)
			return
		}
		v.assigns++
		prof := job.prof
		tc := job.tc
		// Never place two replicas on one node, nor on a disavowed one.
		exclude := append([]transport.Addr(nil), job.excluded...)
		for _, r := range v.reps {
			exclude = append(exclude, r.run)
		}
		exclude = append(exclude, demoted...)
		n.mu.Unlock()

		m := n.matcher.FindRunNodes(rt, []MatchReq{{Cons: prof.Cons, Exclude: exclude}})[0]
		run := m.Run
		tc, res := n.placeOne(rt, job, tc, Checkpoint{}, m)
		switch res {
		case unmatched:
			rt.Sleep(n.cfg.MatchRetryEvery)
			continue
		case skipped:
			demoted = append(demoted, run)
			continue
		case refused:
			continue
		}
		n.mu.Lock()
		if job, ok := n.owned[jobID]; ok && job.vote != nil &&
			job.vote.winner == "" && !job.isExcluded(run) && !job.vote.hasReplica(run) {
			job.vote.reps = append(job.vote.reps, &replica{run: run, lastHB: rt.Now()})
			job.tc = tc
		}
		n.mu.Unlock()
	}
}

// voteTickLocked is the monitor's per-tick pass over one voting job:
// replicas silent beyond RunDeadAfter are disavowed (crashed nodes and
// result-withholding saboteurs look identical here) and a filler is
// requested when the replica set needs topping up. Dead replicas are
// appended to deadReps for event emission outside the lock.
func (n *Node) voteTickLocked(now time.Duration, id ids.ID, job *ownedJob, deadReps *[]deadRun) (fill bool) {
	v := job.vote
	if v.winner != "" {
		return false
	}
	kept := v.reps[:0]
	for _, r := range v.reps {
		if !r.voted && now-r.lastHB > n.cfg.RunDeadAfter {
			job.excluded = append(job.excluded, r.run)
			*deadReps = append(*deadReps, deadRun{job: job})
			continue
		}
		kept = append(kept, r)
	}
	v.reps = kept
	if v.filling {
		return false
	}
	need := n.replicaNeedLocked(v)
	if need > 0 && (v.assigns < n.maxAssigns() || !n.quorumFeasibleLocked(v)) {
		v.filling = true
		return true
	}
	return false
}

// applyVoteLocked tallies one replica's completion vote. It returns
// the lifecycle events to announce after n.mu is released and whether
// a replica filler should be spawned (split verdict needing tie-break
// voters).
func (n *Node) applyVoteLocked(now time.Duration, job *ownedJob, c CompleteReq) (evs []Event, fill bool) {
	v := job.vote
	// Zombie and duplicate votes: a disavowed replica must not vote
	// (the complete-side mirror of the excluded-heartbeat rule), an
	// unknown sender was never assigned this job, and a replica votes
	// once.
	if job.isExcluded(c.Run) || !v.hasReplica(c.Run) {
		return nil, false
	}
	if _, dup := v.voted[c.Run]; dup {
		return nil, false
	}
	for _, r := range v.reps {
		if r.run == c.Run {
			r.voted = true
			r.lastHB = now
		}
	}
	v.voted[c.Run] = c.Digest
	v.votes[c.Digest]++
	evs = append(evs, Event{Kind: EvVoted, At: now, Node: c.Run, Digest: c.Digest})
	if v.winner != "" {
		// Late vote after acceptance: score it against the winner, but
		// the settled result stands.
		evs = append(evs, n.scoreVoterLocked(now, job, c.Run, c.Digest)...)
		return evs, false
	}
	if v.votes[c.Digest] >= n.cfg.Quorum {
		v.winner = c.Digest
		res := c.Res
		job.relay = &res
		evs = append(evs, Event{Kind: EvAccepted, At: now, Node: n.host.Addr(), Digest: c.Digest})
		// Score every voter so far against the winner, in address order
		// for deterministic event sequences.
		addrs := make([]transport.Addr, 0, len(v.voted))
		for a := range v.voted {
			addrs = append(addrs, a)
		}
		sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
		for _, a := range addrs {
			evs = append(evs, n.scoreVoterLocked(now, job, a, v.voted[a])...)
		}
		return evs, false
	}
	// No quorum yet. If every outstanding path to quorum needs more
	// replicas (split verdict), request a filler.
	if !v.filling && n.replicaNeedLocked(v) > 0 &&
		(v.assigns < n.maxAssigns() || !n.quorumFeasibleLocked(v)) {
		v.filling = true
		fill = true
	}
	return evs, fill
}

// scoreVoterLocked applies one voter's reputation outcome against the
// accepted digest: dissenters are rejected and penalized, agreeing
// replicas credited. Each voter is scored at most once per job.
func (n *Node) scoreVoterLocked(now time.Duration, job *ownedJob, run transport.Addr, digest string) []Event {
	v := job.vote
	if v.scored[run] {
		return nil
	}
	v.scored[run] = true
	var evs []Event
	agree := digest == v.winner
	if !agree {
		evs = append(evs, Event{Kind: EvRejected, At: now, Node: run, Digest: digest})
	}
	if n.cfg.Trust == nil {
		return evs
	}
	var delta float64
	var crossed bool
	if agree {
		delta, crossed = n.cfg.Trust.Agree(run)
	} else {
		delta, crossed = n.cfg.Trust.Disagree(run)
	}
	evs = append(evs, Event{Kind: EvReputation, At: now, Node: run, Delta: delta})
	if crossed {
		evs = append(evs, Event{Kind: EvBlacklisted, At: now, Node: run, Delta: delta})
	}
	return evs
}

// --- known-answer probes ---

// probeWork is the simulated execution time of one probe job.
const probeWork = 100 * time.Millisecond

// maybeProbe sends one spot-check probe to the worst-scored
// blacklisted peer when the probe timer elapses. A correct answer is
// the redemption path back out of the blacklist; a wrong one digs the
// hole deeper. Call errors are no evidence either way.
func (n *Node) maybeProbe(rt transport.Runtime, now time.Duration) {
	if n.cfg.ProbeEvery <= 0 || n.cfg.Trust == nil {
		return
	}
	n.mu.Lock()
	if n.nextProbe == 0 {
		n.nextProbe = now + n.cfg.ProbeEvery
		n.mu.Unlock()
		return
	}
	if now < n.nextProbe {
		n.mu.Unlock()
		return
	}
	n.nextProbe = now + n.cfg.ProbeEvery
	target, ok := n.cfg.Trust.WorstBlacklisted()
	if !ok {
		n.mu.Unlock()
		return
	}
	n.probeSeq++
	nonce := fmt.Sprintf("%s/%d", n.host.Addr(), n.probeSeq)
	n.mu.Unlock()

	raw, err := rt.Call(target, MProbe, ProbeJobReq{Nonce: nonce, Work: probeWork})
	if err != nil {
		return
	}
	var delta float64
	if raw.(ProbeJobResp).Digest == ProbeDigest(nonce) {
		delta, _ = n.cfg.Trust.ProbeOK(target)
	} else {
		delta, _ = n.cfg.Trust.ProbeBad(target)
	}
	n.record(obs.TC{}, Event{
		Kind: EvProbed, JobID: ids.HashString("probe/" + nonce),
		At: rt.Now(), Node: target, Delta: delta,
	}, "", "")
}

// handleProbe executes a known-answer probe job. A Byzantine node
// sabotages probes exactly as it sabotages real jobs — which is what
// lets probes catch it.
func (n *Node) handleProbe(rt transport.Runtime, from transport.Addr, req any) (any, error) {
	p := req.(ProbeJobReq)
	rt.Sleep(p.Work)
	correct := ProbeDigest(p.Nonce)
	if n.cfg.Byzantine != nil {
		wrong, withhold := n.cfg.Byzantine(ids.HashString("probe/"+p.Nonce), 0)
		if withhold {
			return nil, fmt.Errorf("grid: probe %s withheld", p.Nonce)
		}
		if wrong {
			return ProbeJobResp{Digest: CorruptDigest(correct, n.host.Addr())}, nil
		}
	}
	return ProbeJobResp{Digest: correct}, nil
}

// handleTrust dumps the node's local reputation table (the gridctl
// `trust` subcommand's backend).
func (n *Node) handleTrust(rt transport.Runtime, from transport.Addr, req any) (any, error) {
	if n.cfg.Trust == nil {
		return TrustResp{}, nil
	}
	return TrustResp{Entries: n.cfg.Trust.Snapshot()}, nil
}
