package grid

import (
	"fmt"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/transport"
)

// EventKind enumerates job lifecycle events.
type EventKind int

// Lifecycle events recorded through the Recorder. A new kind is
// appended, so a kind's value never changes.
const (
	EvSubmitted EventKind = iota
	EvInjected
	EvOwned
	EvMatched
	EvMatchFailed
	EvEnqueued
	EvStarted
	EvCompleted
	EvResultDelivered
	EvRunFailureDetected
	EvOwnerFailureDetected
	EvOwnerAdopted
	EvResubmitted
	EvDropped
	EvGaveUp
	EvCheckpointed
	EvResumed
	EvVoted          // a replica's digest was tallied at the owner
	EvAccepted       // quorum reached; Digest is the winning digest
	EvRejected       // a replica dissented from the accepted digest
	EvQuorumFailed   // replica/rematch budget exhausted without quorum
	EvReputation     // a peer's trust score changed; Delta is the change
	EvBlacklisted    // the change crossed the peer into the blacklist
	EvProbed         // a known-answer probe completed; Delta is the change
	EvPromoted       // a replica took ownership of a job after owner death (DESIGN.md §10)
	EvHandoff        // a promoted/restored owner re-established the execution path
	EvDemoted        // a stale owner stood down after being fenced
	EvRestored       // a replica handed a restarted owner its job state back
	EvInjectRejected // an at-capacity owner refused an injection (DESIGN.md §11)
)

func (k EventKind) String() string {
	if int(k) < len(lifecycle) {
		return lifecycle[k].name
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// A role is a part a node plays in a job's life (every node plays all
// of them); a table column is a set of roles.
type role uint8

const (
	client   role = 1 << iota // submits the job and awaits its result
	injector                  // routes the submission to its owner
	owner                     // owns a job that runs once
	voter                     // owns a job that votes over replicas (voting.go)
	runner                    // runs the job
)

// states is a set of record states: bit 0 is a fresh record, bit k+1
// the state kind k leaves it in.
type states uint64

const (
	fresh  states = 1      // a record no transition has opened
	opened        = ^fresh // any state of an opened record
)

// after is the set of states the given kinds leave a record in.
func after(kinds ...EventKind) (s states) {
	for _, k := range kinds {
		s |= 1 << (k + 1)
	}
	return s
}

// A stage is one row of the lifecycle table.
type stage struct {
	name    string
	by      role   // the roles that record it, moving their record
	push    role   // the roles that push it to the job's topic
	follows states // the record states it may follow; 0 moves no record
}

// lifecycle is the job lifecycle (the paper's Fig. 1; DESIGN.md §8),
// one row per EventKind; transition is the only function that decides
// by it. A record is opened by the step that creates it, before or
// under the lock that publishes it, so no other step can come first,
// and a second opening step is refused: an adopt of a job already owned.
// The owner pushes checkpointed when it stores a run node's snapshot;
// matched is pushed for a job that runs once, not per replica of a
// voting job, whose votes are pushed; a reputation change is pushed
// with the vote that caused it and moves no record.
var lifecycle = [...]stage{
	EvSubmitted:            {"submitted", client, 0, fresh},
	EvInjected:             {"injected", injector, 0, 0},
	EvOwned:                {"owned", owner | voter, owner | voter, fresh},
	EvMatched:              {"matched", owner | voter, owner, opened},
	EvMatchFailed:          {"match-failed", owner | voter, 0, opened},
	EvEnqueued:             {"enqueued", runner, 0, fresh},
	EvStarted:              {"started", runner, runner, after(EvEnqueued, EvOwnerFailureDetected)},
	EvCompleted:            {"completed", owner, owner, opened},
	EvResultDelivered:      {"result-delivered", client, 0, after(EvSubmitted)},
	EvRunFailureDetected:   {"run-failure-detected", owner | voter, owner | voter, opened},
	EvOwnerFailureDetected: {"owner-failure-detected", runner, 0, opened},
	EvOwnerAdopted:         {"owner-adopted", owner | voter, owner | voter, fresh},
	EvResubmitted:          {"resubmitted", client, client, after(EvSubmitted)},
	EvDropped:              {"dropped", runner, 0, opened},
	EvGaveUp:               {"gave-up", owner | voter, owner | voter, opened},
	EvCheckpointed:         {"checkpointed", runner, owner, after(EvStarted, EvResumed, EvCheckpointed, EvOwnerFailureDetected)},
	EvResumed:              {"resumed", runner, 0, after(EvStarted, EvOwnerFailureDetected)},
	EvVoted:                {"voted", voter, voter, opened},
	EvAccepted:             {"accepted", voter, voter, opened},
	EvRejected:             {"rejected", voter, voter, opened},
	EvQuorumFailed:         {"quorum-failed", voter, 0, opened},
	EvReputation:           {"reputation", voter, voter, 0},
	EvBlacklisted:          {"blacklisted", voter, voter, 0},
	EvProbed:               {"probed", owner | voter, 0, 0},
	EvPromoted:             {"promoted", owner | voter, owner | voter, fresh},
	EvHandoff:              {"handoff", owner | voter, owner | voter, after(EvPromoted, EvRestored)},
	EvDemoted:              {"demoted", owner | voter, 0, opened},
	EvRestored:             {"restored", owner | voter, owner | voter, fresh},
	EvInjectRejected:       {"inject-rejected", owner | voter, 0, 0},
}

// life is a role record's lifecycle state: the last kind transition let
// through, plus one (zero: fresh).
type life struct{ state atomic.Int32 }

// move advances l to to if its state is in follows, reporting whether
// it did.
func (l *life) move(follows states, to EventKind) bool {
	for {
		cur := l.state.Load()
		if follows&(1<<cur) == 0 {
			return false
		}
		if l.state.CompareAndSwap(cur, int32(to)+1) {
			return true
		}
	}
}

// transition announces one step of prof's lifecycle taken at this node
// in role by. If ev.Kind's row has by among its recorders, the step must
// follow the state of l, the role's record of the job (nil for a row
// that moves none): a refused step is neither recorded nor pushed. A
// recorded step goes to record with peer and note. If the row has by
// among its pushers, the step is published to the job lineage's topic
// naming node. It returns the advanced trace context and takes no lock,
// so callers may hold n.mu.
func (n *Node) transition(tc obs.TC, by role, l *life, prof Profile, ev Event, peer, node transport.Addr, note string) obs.TC {
	st := lifecycle[ev.Kind]
	ev.JobID, ev.Attempt = prof.ID, prof.Attempt
	if ev.Node == "" {
		ev.Node = n.host.Addr()
	}
	if st.by&by != 0 {
		if st.follows != 0 && !l.move(st.follows, ev.Kind) {
			return tc
		}
		tc = n.record(tc, ev, peer, note)
	}
	if st.push&by != 0 && n.cfg.Notify != nil {
		// Queued by the broker and shipped from its own activities.
		n.cfg.Notify.Publish(NotifyTopic(prof.Client, prof.Seq), EncodeJobUpdate(JobUpdate{
			JobID: prof.ID, Attempt: prof.Attempt, Kind: st.name,
			Node: node, From: n.host.Addr(), At: ev.At, Progress: ev.Progress,
		}))
	}
	return tc
}

// record is the recorder's only caller: it traces a stage named
// ev.Kind.String() annotated with peer and note, counts the step in
// grid_events_total and the inject/match histograms, publishes it on
// /events and hands it to the recorder. Besides transition, only the
// peer-level EvProbed, which belongs to no job, calls it.
func (n *Node) record(tc obs.TC, ev Event, peer transport.Addr, note string) obs.TC {
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
