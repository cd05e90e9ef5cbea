package grid

import (
	"bytes"
	"encoding/gob"
	"time"

	"repro/internal/ids"
	"repro/internal/transport"
)

// Push notifications (DESIGN.md §13). With Config.Notify set, a node
// publishes the transitions the lifecycle table pushes to the job
// lineage's topic, the client subscribes on submit, and its monitor
// polls only on silence. Publishes ship on broker-owned activities and
// OnNotification only stamps a freshness clock, so protocol outcomes
// are identical with Notify on or off.

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
