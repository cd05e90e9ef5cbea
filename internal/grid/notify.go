package grid

import (
	"bytes"
	"encoding/gob"
	"time"

	"repro/internal/ids"
	"repro/internal/transport"
)

// Push notifications (DESIGN.md §13). With Config.Notify set, every
// node publishes the job-state transitions it drives — own, match,
// start, checkpoint, vote, completion, adoption, promotion, resubmit
// — to the job lineage's pub/sub topic, and the client side
// subscribes on submit. The client monitor then treats a recent
// notification as proof of life and skips the status poll, demoting
// per-job polling to a silence-only fallback.
//
// Everything here is trace-neutral: publishes enqueue under the
// broker's own lock and ship on broker-owned activities, OnNotification
// only stamps a freshness clock the monitor reads, and with Notify nil
// none of it exists. Protocol outcomes are identical either way.

// NotifyTopic returns the pub/sub topic of a job lineage: the
// attempt-0 GUID, stable across resubmissions — the same key that
// names the lineage's trace — so one subscription spans every attempt.
func NotifyTopic(client transport.Addr, seq int) ids.ID {
	return TraceID(client, seq)
}

// JobUpdate is the payload of one push notification: a job-state
// transition as the publishing node saw it.
type JobUpdate struct {
	JobID   ids.ID // the attempt's GUID (not the lineage topic)
	Attempt int
	Kind    string         // EventKind.String()
	Node    transport.Addr // the node the transition concerns (run node for matched/started)
	From    transport.Addr // the publishing node
	At      time.Duration
	// Progress carries work accounting where the transition has any
	// (checkpointed, started-with-resume).
	Progress time.Duration
}

// EncodeJobUpdate serializes a JobUpdate for the pub/sub payload.
func EncodeJobUpdate(u JobUpdate) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(u); err != nil {
		panic("grid: encode job update: " + err.Error())
	}
	return buf.Bytes()
}

// DecodeJobUpdate parses a pub/sub payload produced by EncodeJobUpdate.
func DecodeJobUpdate(data []byte) (JobUpdate, error) {
	var u JobUpdate
	err := gob.NewDecoder(bytes.NewReader(data)).Decode(&u)
	return u, err
}

// notifyTransition publishes one job-state transition to the job
// lineage's topic. Nil-safe (no-op without a broker) and
// non-blocking: the broker queues the payload and ships it from its
// own activities, so the caller's timing — the protocol hot path —
// is untouched.
func (n *Node) notifyTransition(at time.Duration, prof Profile, kind EventKind, node transport.Addr, progress time.Duration) {
	if n.cfg.Notify == nil {
		return
	}
	n.cfg.Notify.Publish(NotifyTopic(prof.Client, prof.Seq), EncodeJobUpdate(JobUpdate{
		JobID:    prof.ID,
		Attempt:  prof.Attempt,
		Kind:     kind.String(),
		Node:     node,
		From:     n.host.Addr(),
		At:       at,
		Progress: progress,
	}))
}

// OnNotification is the client-side sink for fresh pub/sub events
// (wired as the broker's OnEvent callback). It stamps the pending
// job's freshness clock: the monitor treats a recent notification as
// proof that someone alive is driving the job and skips the status
// poll. A gave-up push proves the opposite — the owner dropped the job
// — so it clears the clock and the next monitor tick probes.
// Notifications never alter protocol state beyond that clock — the
// probe/resubmit recovery path is untouched.
func (n *Node) OnNotification(rt transport.Runtime, topic ids.ID, payload []byte) {
	u, err := DecodeJobUpdate(payload)
	if err != nil {
		return
	}
	now := rt.Now()
	n.mu.Lock()
	if pp, ok := n.pending[u.JobID]; ok && !pp.got {
		if u.Kind == EvGaveUp.String() {
			pp.lastNotify = 0
		} else {
			pp.lastNotify = now
		}
	}
	n.NotifyRecv++
	// A pushed transition also wakes result waiters (the flow engine).
	n.resultEvents++
	n.resultCond.Broadcast()
	n.mu.Unlock()
	n.om.notifyRecv.Inc()
}
