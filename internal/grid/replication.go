package grid

import (
	"bytes"
	"encoding/gob"
	"time"

	"repro/internal/ids"
	"repro/internal/obs"
	replpkg "repro/internal/replica"
	"repro/internal/transport"
)

// ReplicaRing is the ring abstraction the replica subsystem consumes;
// re-exported so deployments configure grid.Config without importing
// internal/replica directly.
type ReplicaRing = replpkg.Ring

// OwnerRecord is the owner-side job state a node replicates to its ring
// successors (DESIGN.md §10): enough to rebuild an ownedJob — profile,
// execution placement, exclusion history, and the latest checkpoint —
// but none of the transient coordination state (relay buffers, vote
// tallies), which the promoted owner rebuilds from the protocol itself.
type OwnerRecord struct {
	Prof     Profile
	Run      transport.Addr
	Matched  bool
	Excluded []transport.Addr
	Ckpt     Checkpoint
	TC       obs.TC
}

func encodeOwnerRecord(or OwnerRecord) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(or); err != nil {
		// All OwnerRecord fields are gob-encodable; failure here is a
		// programming error, and replication is best-effort anyway.
		return nil
	}
	return buf.Bytes()
}

func decodeOwnerRecord(data []byte) (OwnerRecord, error) {
	var or OwnerRecord
	err := gob.NewDecoder(bytes.NewReader(data)).Decode(&or)
	return or, err
}

// replTargets returns this owner's current ranked replica targets (the
// replication push set, nearest ring successor first), or nil when
// replication is off. Assignments carry it so run nodes can steer
// adoption at the replica chain — the nodes holding the job's state and
// the ones rank-based promotion elects from — instead of walk-routing
// to a random second owner.
func (n *Node) replTargets() []transport.Addr {
	if n.repl == nil {
		return nil
	}
	return n.cfg.ReplicaRing.Successors(n.cfg.ReplicaK)
}

// republish pushes a job's current owner state into the replicated
// store. Call after every owner-side mutation worth surviving this
// node's death: ownership, match results, exclusions, checkpoints.
// No-op when replication is off or the job is no longer owned.
func (n *Node) republish(jobID ids.ID) {
	if n.repl == nil {
		return
	}
	n.mu.Lock()
	job, ok := n.owned[jobID]
	var or OwnerRecord
	if ok {
		or = OwnerRecord{
			Prof:     job.prof,
			Run:      job.run,
			Matched:  job.matched,
			Excluded: append([]transport.Addr(nil), job.excluded...),
			Ckpt:     job.ckpt,
			TC:       job.tc,
		}
	}
	n.mu.Unlock()
	if !ok {
		return
	}
	n.repl.Publish(jobID, encodeOwnerRecord(or))
}

// retire tombstones a job's replicated record once its lifecycle ends
// at this owner (delivered, relayed, or given up) so replicas stop
// guarding it and the tombstone fences any copy still in flight.
func (n *Node) retire(now time.Duration, jobID ids.ID) {
	if n.repl == nil {
		return
	}
	n.repl.Delete(now, jobID)
}

// ReplicaKick asks the replica subsystem for an immediate push+probe
// round; the overlay calls it on ring changes (chord.OnRingChange) so
// re-targeting and takeover don't wait out a full anti-entropy period.
func (n *Node) ReplicaKick() {
	if n.repl != nil {
		n.repl.Kick()
	}
}

// onReplicaOwn is the replica subsystem's ownership callback: this node
// just became responsible for a replicated job record — promoted after
// the previous owner died, or restored after this node itself restarted
// and a surviving replica pushed its state back. It rebuilds the
// ownedJob and re-establishes the execution path: re-attach to the
// recorded run node when one is known, otherwise rematch (or refill the
// replica set, on the voting path) from the replicated checkpoint.
func (n *Node) onReplicaOwn(rt transport.Runtime, rec replpkg.Record, promoted bool) {
	or, err := decodeOwnerRecord(rec.Data)
	if err != nil || or.Prof.ID != rec.Key {
		return
	}
	now := rt.Now()
	n.mu.Lock()
	if _, dup := n.owned[or.Prof.ID]; dup {
		n.mu.Unlock()
		return
	}
	var job *ownedJob
	var proc string
	var spawn func(rt transport.Runtime)
	if n.cfg.votingOn() {
		// The dead owner's vote tallies are lost (same rule as adoption):
		// restart the vote from scratch; surviving replicas re-register
		// through their heartbeats' adopt path and the filler tops up.
		job = n.newVotingJobLocked(or.Prof)
		job.excluded = or.Excluded
		job.tc = or.TC
		proc, spawn = "grid.fill", func(rt transport.Runtime) { n.fillReplicas(rt, or.Prof.ID) }
	} else {
		job = &ownedJob{prof: or.Prof, excluded: or.Excluded, lastHB: now, tc: or.TC}
		if or.Ckpt.Attempt == or.Prof.Attempt {
			job.ckpt = or.Ckpt
		}
		if or.Matched && or.Run != "" && !job.isExcluded(or.Run) {
			job.run = or.Run
			job.matched = true
			proc, spawn = "grid.reattach", func(rt transport.Runtime) { n.reattachRun(rt, or.Prof.ID) }
		} else {
			job.matching = true
			proc, spawn = "grid.rematch", func(rt transport.Runtime) { n.matchAndAssign(rt, []ids.ID{or.Prof.ID}) }
		}
	}
	n.owned[or.Prof.ID] = job
	saved := job.ckpt.Done
	n.mu.Unlock()

	kind := EvRestored
	if promoted {
		kind = EvPromoted
	}
	ev := n.jobEvent(kind, or.Prof, now)
	ev.Progress = saved
	tc := n.emit(or.TC, ev, rec.Owner, n.traceNote("epoch=%d", rec.Epoch))
	n.notifyTransition(now, or.Prof, kind, n.host.Addr(), saved)
	ev.Kind = EvHandoff
	tc = n.emit(tc, ev, or.Run, n.traceNote("path=%s", proc))
	n.notifyTransition(now, or.Prof, EvHandoff, or.Run, saved)
	n.mu.Lock()
	if job, ok := n.owned[or.Prof.ID]; ok {
		job.tc = tc
	}
	n.mu.Unlock()
	// Republishing under this node's ownership keeps the epoch the
	// replica layer just opened and fans the record out to OUR
	// successors, fencing the dead owner should it resurface.
	n.republish(or.Prof.ID)
	n.host.Go(proc, spawn)
}

// reattachRun re-establishes the owner<->run relationship after a
// handoff: the recorded run node gets a (idempotent) re-assignment
// naming this node as owner, which re-aims its heartbeats; if the run
// node is unreachable — the correlated owner+run double failure — the
// job falls back to ordinary rematch from the replicated checkpoint.
func (n *Node) reattachRun(rt transport.Runtime, jobID ids.ID) {
	n.mu.Lock()
	job, ok := n.owned[jobID]
	if !ok || job.vote != nil || !job.matched {
		n.mu.Unlock()
		return
	}
	prof, run, ckpt, tc := job.prof, job.run, job.ckpt, job.tc
	n.mu.Unlock()
	req := AssignReq{Prof: prof, Owner: n.host.Addr(), Ckpt: ckpt, Reps: n.replTargets(), TC: tc}
	if _, err := n.call(rt, run, MAssign, req); err == nil {
		n.mu.Lock()
		if job, ok := n.owned[jobID]; ok {
			job.lastHB = rt.Now()
		}
		n.mu.Unlock()
		n.trace(tc, rt.Now(), "reattached", prof.Attempt, run, "")
		n.republish(jobID)
		return
	}
	n.mu.Lock()
	if job, ok := n.owned[jobID]; ok && job.vote == nil {
		job.excluded = append(job.excluded, run)
		job.run = ""
		job.matched = false
		job.matching = true
	}
	n.mu.Unlock()
	n.republish(jobID)
	n.matchAndAssign(rt, []ids.ID{jobID})
}

// onReplicaFenced is the replica subsystem's demotion callback: a newer
// record owned elsewhere displaced one this node was serving — this
// node is a stale owner (it resurfaced after a replica promoted, or
// lost an adoption race) and must stand down so the job doesn't run
// under two owners. Dropping the ownedJob also drops its heartbeat
// registration: the zombie-side rules (excluded heartbeats, complete
// fencing) already keep a displaced run node from double-delivering.
func (n *Node) onReplicaFenced(rt transport.Runtime, rec replpkg.Record) {
	n.mu.Lock()
	job, ok := n.owned[rec.Key]
	var prof Profile
	var tc obs.TC
	if ok {
		prof = job.prof
		tc = job.tc
		delete(n.owned, rec.Key)
	}
	n.mu.Unlock()
	if !ok {
		return
	}
	n.emit(tc, n.jobEvent(EvDemoted, prof, rt.Now()), rec.Owner, n.traceNote("epoch=%d", rec.Epoch))
}

// MReplicas is the diagnostics RPC behind `gridctl replicas`.
const MReplicas = "grid.replicas"

// ReplicasReq asks a node for a job's replication status.
type ReplicasReq struct {
	JobID ids.ID
}

// ReplicasResp returns the node's view of the record: ordering fields,
// current owner, and (when asked of the owner) per-replica ack state.
// Known is false when replication is off or the record is unknown here.
type ReplicasResp struct {
	Status replpkg.Status
}

func (n *Node) handleReplicas(rt transport.Runtime, from transport.Addr, req any) (any, error) {
	r := req.(ReplicasReq)
	if n.repl == nil {
		return ReplicasResp{}, nil
	}
	return ReplicasResp{Status: n.repl.Status(r.JobID)}, nil
}
