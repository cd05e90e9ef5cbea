package grid

// White-box tests for the quorum-voting state machine and for the
// zombie-complete regression on the legacy (non-voting) path. Like the
// recovery tests, these drive handlers directly against a stub host so
// specific interleavings are exact rather than scheduled.

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/transport"
	"repro/internal/trust"
)

// TestCompleteFromExcludedRunNodeIgnored is the complete-side mirror of
// the excluded-heartbeat rule: after the owner disavows a run node (or
// rematches the job elsewhere), a late grid.complete from that node
// must not retire the job — the replacement is still running it, and
// accepting the zombie would strand the replacement's eventual result.
func TestCompleteFromExcludedRunNodeIgnored(t *testing.T) {
	id := ids.HashString("job")
	var completed int
	rec := RecorderFunc(func(ev Event) {
		if ev.Kind == EvCompleted {
			completed++
		}
	})
	n, _ := newStubNode(rec, Config{})
	n.owned[id] = &ownedJob{
		prof:     Profile{ID: id, Client: "client"},
		run:      "new-run",
		matched:  true,
		excluded: []transport.Addr{"old-run"},
	}
	rt := &stubRT{now: time.Minute, rng: rand.New(rand.NewSource(1))}

	// Disavowed node's complete: ignored.
	if _, err := n.handleComplete(rt, "old-run", CompleteReq{JobID: id, Run: "old-run"}); err != nil {
		t.Fatalf("handleComplete: %v", err)
	}
	if _, ok := n.owned[id]; !ok {
		t.Fatal("zombie complete retired the job")
	}
	// Displaced (not formally excluded) node: also ignored.
	if _, err := n.handleComplete(rt, "elsewhere", CompleteReq{JobID: id, Run: "elsewhere"}); err != nil {
		t.Fatalf("handleComplete: %v", err)
	}
	if _, ok := n.owned[id]; !ok {
		t.Fatal("displaced run node's complete retired the job")
	}
	if completed != 0 {
		t.Fatalf("EvCompleted recorded %d times for zombie completes", completed)
	}
	// The current run node's complete still works.
	if _, err := n.handleComplete(rt, "new-run", CompleteReq{JobID: id, Run: "new-run"}); err != nil {
		t.Fatalf("handleComplete: %v", err)
	}
	if _, ok := n.owned[id]; ok {
		t.Fatal("legitimate complete did not retire the job")
	}
	if completed != 1 {
		t.Fatalf("EvCompleted recorded %d times, want 1", completed)
	}
}

// votingJob plants an owned voting job with the given replicas.
func votingJob(n *Node, id ids.ID, reps ...transport.Addr) *ownedJob {
	job := &ownedJob{prof: Profile{ID: id, Client: "client"}, vote: newVoteState()}
	for _, r := range reps {
		job.vote.reps = append(job.vote.reps, &replica{run: r})
	}
	n.owned[id] = job
	return job
}

func vote(t *testing.T, n *Node, rt transport.Runtime, id ids.ID, run transport.Addr, digest string) {
	t.Helper()
	req := CompleteReq{JobID: id, Run: run, Digest: digest, Res: Result{JobID: id, RunNode: run, Digest: digest}}
	if _, err := n.handleComplete(rt, run, req); err != nil {
		t.Fatalf("vote from %s: %v", run, err)
	}
}

// TestVotingQuorumAcceptsAndScores walks a 3-replica/quorum-2 vote with
// one dissenter: the majority digest must win, the result must be
// queued for relay, and reputation must move for all three voters.
func TestVotingQuorumAcceptsAndScores(t *testing.T) {
	id := ids.HashString("job")
	tb := trust.New()
	rec := &eventLog{}
	n, _ := newStubNode(rec.record(), Config{Replicas: 3, Quorum: 2, Trust: tb})
	job := votingJob(n, id, "r1", "r2", "r3")
	rt := &stubRT{now: time.Minute, rng: rand.New(rand.NewSource(2))}

	good := ResultDigest("client", 0, 1, "")
	bad := CorruptDigest(good, "r2")
	vote(t, n, rt, id, "r1", good)
	vote(t, n, rt, id, "r2", bad)
	if job.relay != nil {
		t.Fatal("result accepted before quorum")
	}
	vote(t, n, rt, id, "r3", good)

	if job.vote.winner != good {
		t.Fatalf("winner %q, want the majority digest", job.vote.winner)
	}
	if job.relay == nil || job.relay.Digest != good {
		t.Fatal("accepted result not queued for relay")
	}
	if got := rec.count(EvVoted); got != 3 {
		t.Fatalf("EvVoted %d, want 3", got)
	}
	if got := rec.count(EvAccepted); got != 1 {
		t.Fatalf("EvAccepted %d, want 1", got)
	}
	if got := rec.count(EvRejected); got != 1 {
		t.Fatalf("EvRejected %d, want 1", got)
	}
	if got := rec.count(EvReputation); got != 3 {
		t.Fatalf("EvReputation %d, want 3", got)
	}
	if s := tb.Score("r2"); s >= tb.InitialScore() {
		t.Fatalf("dissenter score %v not penalized", s)
	}
	if s := tb.Score("r1"); s <= tb.InitialScore() {
		t.Fatalf("agreeing replica score %v not credited", s)
	}
}

// TestVotingIgnoresZombieAndDuplicateVotes: excluded replicas, never-
// assigned senders, and double votes must not move the tally.
func TestVotingIgnoresZombieAndDuplicateVotes(t *testing.T) {
	id := ids.HashString("job")
	rec := &eventLog{}
	n, _ := newStubNode(rec.record(), Config{Replicas: 2, Quorum: 2})
	job := votingJob(n, id, "r1", "r2")
	job.excluded = []transport.Addr{"zombie"}
	job.vote.reps = append(job.vote.reps, &replica{run: "zombie"}) // stale entry
	rt := &stubRT{now: time.Minute, rng: rand.New(rand.NewSource(3))}

	d := ResultDigest("client", 0, 1, "")
	vote(t, n, rt, id, "zombie", d)   // excluded: ignored
	vote(t, n, rt, id, "stranger", d) // never a replica: ignored
	vote(t, n, rt, id, "r1", d)
	vote(t, n, rt, id, "r1", d) // duplicate: ignored
	if got := rec.count(EvVoted); got != 1 {
		t.Fatalf("EvVoted %d, want 1 (zombie/stranger/dup must not count)", got)
	}
	if job.vote.votes[d] != 1 {
		t.Fatalf("tally %d, want 1", job.vote.votes[d])
	}
	if job.vote.winner != "" {
		t.Fatal("quorum reached off ignored votes")
	}
}

// TestVotingLateVoteAfterAcceptance: a settled vote stands; stragglers
// are scored against the winner but cannot change the outcome.
func TestVotingLateVoteAfterAcceptance(t *testing.T) {
	id := ids.HashString("job")
	tb := trust.New()
	rec := &eventLog{}
	n, _ := newStubNode(rec.record(), Config{Replicas: 3, Quorum: 2, Trust: tb})
	job := votingJob(n, id, "r1", "r2", "r3")
	rt := &stubRT{now: time.Minute, rng: rand.New(rand.NewSource(4))}

	good := ResultDigest("client", 0, 1, "")
	vote(t, n, rt, id, "r1", good)
	vote(t, n, rt, id, "r2", good) // quorum
	accepted := *job.relay
	vote(t, n, rt, id, "r3", CorruptDigest(good, "r3")) // straggling dissent

	if got := rec.count(EvAccepted); got != 1 {
		t.Fatalf("EvAccepted %d, want 1", got)
	}
	if job.relay.RunNode != accepted.RunNode || job.relay.Digest != accepted.Digest {
		t.Fatal("late vote replaced the accepted result")
	}
	if got := rec.count(EvRejected); got != 1 {
		t.Fatalf("late dissenter not rejected (EvRejected %d)", got)
	}
	if s := tb.Score("r3"); s >= tb.InitialScore() {
		t.Fatalf("late dissenter score %v not penalized", s)
	}
}

// TestVoteTickDisavowsDeadReplica: a replica silent past RunDeadAfter
// is excluded (withholding saboteurs and crashes look identical) and a
// refill is requested.
func TestVoteTickDisavowsDeadReplica(t *testing.T) {
	id := ids.HashString("job")
	n, _ := newStubNode(nil, Config{Replicas: 2, Quorum: 2, RunDeadAfter: 3 * time.Second})
	job := votingJob(n, id, "live", "dead")
	now := 20 * time.Second
	job.vote.reps[0].lastHB = now - time.Second
	job.vote.reps[1].lastHB = now - 10*time.Second

	var dead []deadRun
	fill := n.voteTickLocked(now, id, job, &dead)
	if len(dead) != 1 {
		t.Fatalf("%d dead replicas flagged, want 1", len(dead))
	}
	if !job.isExcluded("dead") {
		t.Fatal("dead replica not excluded")
	}
	if job.vote.hasReplica("dead") {
		t.Fatal("dead replica still in the replica set")
	}
	if !fill {
		t.Fatal("no refill requested after losing a replica")
	}
}

// TestFillReplicasGivesUpWhenQuorumInfeasible: with the assignment
// budget spent and no path to quorum, the owner must abandon the job
// (EvQuorumFailed + EvGaveUp) so the client's monitor resubmits.
func TestFillReplicasGivesUpWhenQuorumInfeasible(t *testing.T) {
	id := ids.HashString("job")
	rec := &eventLog{}
	cfg := Config{Replicas: 3, Quorum: 2, MaxRematch: 2}
	n, _ := newStubNode(rec.record(), cfg)
	job := votingJob(n, id) // no replicas left
	job.vote.assigns = n.maxAssigns()
	rt := &stubRT{now: time.Minute, rng: rand.New(rand.NewSource(5))}

	n.fillReplicas(rt, id)

	if _, ok := n.owned[id]; ok {
		t.Fatal("infeasible voting job not abandoned")
	}
	if rec.count(EvQuorumFailed) != 1 || rec.count(EvGaveUp) != 1 {
		t.Fatalf("EvQuorumFailed=%d EvGaveUp=%d, want 1/1", rec.count(EvQuorumFailed), rec.count(EvGaveUp))
	}
}

// TestHandleProbeHonestAndByzantine: probes answer with the known
// digest unless the Byzantine hook corrupts or withholds them.
func TestHandleProbeHonestAndByzantine(t *testing.T) {
	rt := &stubRT{rng: rand.New(rand.NewSource(6))}
	honest, _ := newStubNode(nil, Config{})
	raw, err := honest.handleProbe(rt, "owner", ProbeJobReq{Nonce: "o/1", Work: time.Second})
	if err != nil {
		t.Fatalf("honest probe: %v", err)
	}
	if raw.(ProbeJobResp).Digest != ProbeDigest("o/1") {
		t.Fatal("honest probe digest wrong")
	}

	lying, _ := newStubNode(nil, Config{
		Byzantine: func(ids.ID, int) (bool, bool) { return true, false },
	})
	raw, err = lying.handleProbe(rt, "owner", ProbeJobReq{Nonce: "o/2"})
	if err != nil {
		t.Fatalf("lying probe: %v", err)
	}
	if raw.(ProbeJobResp).Digest == ProbeDigest("o/2") {
		t.Fatal("Byzantine node answered the probe correctly")
	}

	silent, _ := newStubNode(nil, Config{
		Byzantine: func(ids.ID, int) (bool, bool) { return false, true },
	})
	if _, err := silent.handleProbe(rt, "owner", ProbeJobReq{Nonce: "o/3"}); err == nil {
		t.Fatal("withholding node answered the probe")
	}
}

// TestMaybeProbeRedeemsAndCondemns: a correct probe answer lifts a
// blacklisted peer's score, a corrupt one sinks it further.
func TestMaybeProbeRedeemsAndCondemns(t *testing.T) {
	tb := trust.New()
	rec := &eventLog{}
	n, _ := newStubNode(rec.record(), Config{ProbeEvery: 10 * time.Second, Trust: tb})
	// Sink a peer below the blacklist threshold.
	tb.Disagree("suspect")
	tb.Disagree("suspect")
	if !tb.Blacklisted("suspect") {
		t.Fatal("setup: suspect not blacklisted")
	}
	before := tb.Score("suspect")

	rt := &stubRT{now: time.Minute, rng: rand.New(rand.NewSource(7))}
	answer := func(to transport.Addr, method string, req any) (any, error) {
		if method != MProbe {
			t.Fatalf("unexpected call %s", method)
		}
		return ProbeJobResp{Digest: ProbeDigest(req.(ProbeJobReq).Nonce)}, nil
	}
	rt.call = answer

	n.maybeProbe(rt, rt.now) // first call only arms the timer
	rt.now += 11 * time.Second
	n.maybeProbe(rt, rt.now)
	if got := tb.Score("suspect"); got <= before {
		t.Fatalf("correct probe answer did not redeem: %v -> %v", before, got)
	}
	if rec.count(EvProbed) != 1 {
		t.Fatalf("EvProbed %d, want 1", rec.count(EvProbed))
	}

	// Now a corrupt answer.
	before = tb.Score("suspect")
	rt.call = func(to transport.Addr, method string, req any) (any, error) {
		return ProbeJobResp{Digest: "garbage"}, nil
	}
	rt.now += 11 * time.Second
	n.maybeProbe(rt, rt.now)
	if got := tb.Score("suspect"); got >= before {
		t.Fatalf("corrupt probe answer did not penalize: %v -> %v", before, got)
	}
}

// TestNegativeProbeEveryIsOff: a negative period turns probing off, as
// zero does, rather than making every monitor tick due.
func TestNegativeProbeEveryIsOff(t *testing.T) {
	tb := trust.New()
	rec := &eventLog{}
	n, _ := newStubNode(rec.record(), Config{ProbeEvery: -time.Second, Trust: tb})
	tb.Disagree("suspect")
	tb.Disagree("suspect")
	if !tb.Blacklisted("suspect") {
		t.Fatal("setup: suspect not blacklisted")
	}
	rt := &stubRT{now: time.Minute, rng: rand.New(rand.NewSource(7))}
	rt.call = func(to transport.Addr, method string, req any) (any, error) {
		t.Fatalf("unexpected call %s to %s", method, to)
		return nil, nil
	}
	for i := 0; i < 3; i++ {
		n.maybeProbe(rt, rt.now)
		rt.now += time.Second
	}
	if rec.count(EvProbed) != 0 {
		t.Fatalf("EvProbed %d, want 0", rec.count(EvProbed))
	}
}

// eventLog is a tiny thread-safe recorder for white-box tests.
type eventLog struct{ evs []Event }

func (l *eventLog) record() Recorder {
	return RecorderFunc(func(ev Event) { l.evs = append(l.evs, ev) })
}

func (l *eventLog) count(kind EventKind) int {
	n := 0
	for _, ev := range l.evs {
		if ev.Kind == kind {
			n++
		}
	}
	return n
}
