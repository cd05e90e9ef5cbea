package grid

import (
	"math"
	"time"

	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/transport"
)

// Checkpoint/resume, run-node side. The executor advances resumable
// work in slices (see executeAndReport); at every checkpoint interval
// it snapshots progress into the queuedJob, and the heartbeat loop
// ships fresh snapshots to the owner — piggybacked when the state fits
// the heartbeat payload cap, via a standalone grid.checkpoint RPC when
// oversized. The interval itself optionally adapts to the observed
// failure rate (Ni & Harwood's adaptive checkpointing, using Young's
// first-order optimum sqrt(2 * checkpoint-cost / failure-rate)).

const (
	// checkpointCost is the assumed overhead of taking one checkpoint,
	// the numerator of Young's rule.
	checkpointCost = 500 * time.Millisecond
	// checkpointFailWindow is the sliding window over which failure
	// observations feed the adaptive rate.
	checkpointFailWindow = 2 * time.Minute
	// checkpointPiggybackKB caps the checkpoint payload a single
	// heartbeat may carry; snapshots whose state exceeds the remaining
	// budget travel in a standalone grid.checkpoint RPC instead.
	checkpointPiggybackKB = 4
)

// ckptEnabled reports whether the checkpoint subsystem is on.
func (n *Node) ckptEnabled() bool { return n.cfg.CheckpointEvery > 0 }

// noteFailureSignal records one observed failure (an owner declared
// dead, or an assignment arriving with saved progress — evidence a
// run node died) for the adaptive interval.
func (n *Node) noteFailureSignal(now time.Duration) {
	if !n.cfg.CheckpointAdaptive {
		return
	}
	n.mu.Lock()
	n.failObs = append(n.failObs, now)
	// Prune outside the window; the slice stays small (observations
	// arrive at heartbeat cadence at worst).
	cut := 0
	for cut < len(n.failObs) && now-n.failObs[cut] > checkpointFailWindow {
		cut++
	}
	n.failObs = n.failObs[cut:]
	n.mu.Unlock()
}

// ckptInterval returns the interval until the next checkpoint. Fixed
// policy returns CheckpointEvery; adaptive policy applies Young's rule
// to the failure rate observed over checkpointFailWindow, backing off
// to CheckpointMaxEvery when the neighbourhood has been stable.
//
// bias is the workflow hint carried on the job's profile (Ni &
// Harwood's critical-path weighting): under CheckpointWorkflowAware a
// bias > 1 divides the adaptive interval by sqrt(bias) — equivalent to
// inflating the effective failure *cost* by the downstream work a lost
// snapshot would force to re-execute. The bias also tightens the
// stable-neighbourhood backoff, so critical-path stages snapshot more
// eagerly even before the first failure observation. Fixed policy
// ignores it.
func (n *Node) ckptInterval(now time.Duration, bias float64) time.Duration {
	if !n.cfg.CheckpointAdaptive {
		return n.cfg.CheckpointEvery
	}
	n.mu.Lock()
	seen := 0
	for _, t := range n.failObs {
		if now-t <= checkpointFailWindow {
			seen++
		}
	}
	n.mu.Unlock()
	opt := n.cfg.CheckpointMaxEvery
	if seen > 0 {
		rate := float64(seen) / checkpointFailWindow.Seconds() // failures per second
		opt = time.Duration(math.Sqrt(2*checkpointCost.Seconds()/rate) * float64(time.Second))
		if opt > n.cfg.CheckpointMaxEvery {
			opt = n.cfg.CheckpointMaxEvery
		}
	}
	if n.cfg.CheckpointWorkflowAware && bias > 1 {
		opt = time.Duration(float64(opt) / math.Sqrt(bias))
	}
	if opt < n.cfg.CheckpointMinEvery {
		opt = n.cfg.CheckpointMinEvery
	}
	return opt
}

// pendingCkpt is one checkpoint awaiting shipment to an owner.
type pendingCkpt struct {
	owner transport.Addr
	job   *queuedJob
	ckpt  Checkpoint
	tc    obs.TC // trace context captured with the snapshot
}

// collectPendingCkpts snapshots, under the node lock, every local
// checkpoint the owner has not yet acknowledged, skipping jobs the
// owner dropped (their progress is moot).
func (n *Node) collectPendingCkpts(jobs []*queuedJob) []pendingCkpt {
	if !n.ckptEnabled() {
		return nil
	}
	var out []pendingCkpt
	n.mu.Lock()
	for _, q := range jobs {
		if q.dropped || q.ckpt.Zero() || q.ckpt.Done <= q.shippedDone {
			continue
		}
		out = append(out, pendingCkpt{owner: q.owner, job: q, ckpt: q.ckpt, tc: q.tc})
	}
	n.mu.Unlock()
	return out
}

// ExecutedByJob returns a copy of this node's per-job executed work
// (nominal-work units, counted at slice boundaries) — the input to
// re-executed-work accounting.
func (n *Node) ExecutedByJob() map[ids.ID]time.Duration {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(map[ids.ID]time.Duration, len(n.executedBy))
	for id, w := range n.executedBy {
		out[id] = w
	}
	return out
}

// markShipped records owner acknowledgement of a shipped checkpoint.
// The job pointer stays valid even if the queue entry was removed
// meanwhile; shippedDone only ever advances.
func (n *Node) markShipped(p pendingCkpt) {
	n.mu.Lock()
	if p.ckpt.Done > p.job.shippedDone {
		p.job.shippedDone = p.ckpt.Done
	}
	n.mu.Unlock()
}
