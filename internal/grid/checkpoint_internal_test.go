package grid

// White-box tests for the checkpoint subsystem's acceptance rules and
// the adaptive interval, plus owner-handler edge cases (adoption of an
// already-owned job, status for a completed job) that the simulator
// only reaches through rare interleavings.

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/pubsub"
	replpkg "repro/internal/replica"
	"repro/internal/resource"
	"repro/internal/transport"
)

func TestAbsorbCkptRules(t *testing.T) {
	id := ids.HashString("job")
	job := &ownedJob{
		prof:     Profile{ID: id, Attempt: 1},
		run:      "run1",
		matched:  true,
		excluded: []transport.Addr{"zombie"},
	}
	ck := func(run transport.Addr, attempt int, done time.Duration) Checkpoint {
		return Checkpoint{JobID: id, Attempt: attempt, Run: run, Done: done}
	}

	if job.absorbCkpt(Checkpoint{}) {
		t.Fatal("zero checkpoint absorbed")
	}
	if job.absorbCkpt(ck("run1", 0, 5*time.Second)) {
		t.Fatal("wrong-attempt checkpoint absorbed")
	}
	if job.absorbCkpt(ck("zombie", 1, 5*time.Second)) {
		t.Fatal("excluded run node's checkpoint absorbed")
	}
	if job.absorbCkpt(ck("run2", 1, 5*time.Second)) {
		t.Fatal("checkpoint from a non-matched run node absorbed")
	}
	if !job.absorbCkpt(ck("run1", 1, 5*time.Second)) {
		t.Fatal("valid checkpoint rejected")
	}
	if job.ckpt.Done != 5*time.Second {
		t.Fatalf("ckpt.Done = %v", job.ckpt.Done)
	}
	// Progress must be monotonic: a stale snapshot never wins.
	if job.absorbCkpt(ck("run1", 1, 3*time.Second)) {
		t.Fatal("non-monotonic checkpoint absorbed")
	}
	if !job.absorbCkpt(ck("run1", 1, 9*time.Second)) {
		t.Fatal("fresher checkpoint rejected")
	}
	// While a rematch is in flight (unmatched), any non-excluded node's
	// progress is acceptable — it may be the replacement's first report.
	job.matched = false
	if !job.absorbCkpt(ck("run3", 1, 11*time.Second)) {
		t.Fatal("unmatched job rejected replacement's checkpoint")
	}
}

func TestCkptIntervalFixedAndAdaptive(t *testing.T) {
	fixed, _ := newStubNode(nil, Config{CheckpointEvery: 10 * time.Second})
	if got := fixed.ckptInterval(time.Minute, 0); got != 10*time.Second {
		t.Fatalf("fixed interval = %v", got)
	}

	n, _ := newStubNode(nil, Config{
		CheckpointEvery:    10 * time.Second,
		CheckpointAdaptive: true,
		CheckpointMinEvery: time.Second,
		CheckpointMaxEvery: time.Minute,
	})
	now := 10 * time.Minute
	// No observed failures: back off to the max interval.
	if got := n.ckptInterval(now, 0); got != time.Minute {
		t.Fatalf("quiet interval = %v, want max", got)
	}
	// One failure in the window: Young's rule sqrt(2*0.5/(1/120)) ≈ 11 s.
	n.noteFailureSignal(now)
	got := n.ckptInterval(now, 0)
	if got < 9*time.Second || got > 13*time.Second {
		t.Fatalf("1-failure interval = %v, want ~11s", got)
	}
	// A burst of failures drives the interval to the floor.
	for i := 0; i < 500; i++ {
		n.noteFailureSignal(now)
	}
	if got := n.ckptInterval(now, 0); got != time.Second {
		t.Fatalf("burst interval = %v, want min clamp", got)
	}
	// Outside the window the observations expire and the interval
	// relaxes back to the max.
	later := now + 5*time.Minute
	n.noteFailureSignal(later) // triggers pruning of the stale burst
	n.failObs = nil
	if got := n.ckptInterval(later, 0); got != time.Minute {
		t.Fatalf("post-window interval = %v, want max", got)
	}
}

// TestCkptIntervalWorkflowAware: under CheckpointWorkflowAware a
// CkptBias > 1 divides the adaptive interval by sqrt(bias) — including
// the stable-neighbourhood backoff — clamped at the floor; without the
// flag (or with bias <= 1, or under fixed policy) the bias is inert.
func TestCkptIntervalWorkflowAware(t *testing.T) {
	cfg := Config{
		CheckpointEvery:    10 * time.Second,
		CheckpointAdaptive: true,
		CheckpointMinEvery: time.Second,
		CheckpointMaxEvery: time.Minute,
	}
	now := 10 * time.Minute

	// Flag off: bias ignored entirely.
	plain, _ := newStubNode(nil, cfg)
	if got := plain.ckptInterval(now, 4); got != time.Minute {
		t.Fatalf("bias honored without CheckpointWorkflowAware: %v", got)
	}

	cfg.CheckpointWorkflowAware = true
	n, _ := newStubNode(nil, cfg)
	// Quiet neighbourhood: the backoff itself tightens, 60s/sqrt(4)=30s.
	if got := n.ckptInterval(now, 4); got != 30*time.Second {
		t.Fatalf("biased quiet interval = %v, want 30s", got)
	}
	// bias <= 1 means unbiased.
	if got := n.ckptInterval(now, 1); got != time.Minute {
		t.Fatalf("bias=1 interval = %v, want max", got)
	}
	if got := n.ckptInterval(now, 0); got != time.Minute {
		t.Fatalf("bias=0 interval = %v, want max", got)
	}
	// With a failure observed, Young's optimum (~11s) divides by
	// sqrt(bias) too.
	n.noteFailureSignal(now)
	base := n.ckptInterval(now, 0)
	biased := n.ckptInterval(now, 4)
	if want := base / 2; biased < want-time.Millisecond || biased > want+time.Millisecond {
		t.Fatalf("biased interval = %v, want %v (base %v / sqrt(4))", biased, want, base)
	}
	// The floor still holds under extreme bias.
	if got := n.ckptInterval(now, 1e6); got != time.Second {
		t.Fatalf("extreme bias broke the floor: %v", got)
	}

	// Fixed policy ignores the bias.
	fixed, _ := newStubNode(nil, Config{CheckpointEvery: 10 * time.Second, CheckpointWorkflowAware: true})
	if got := fixed.ckptInterval(now, 9); got != 10*time.Second {
		t.Fatalf("fixed policy honored bias: %v", got)
	}
}

func TestNoteFailureSignalPrunesWindow(t *testing.T) {
	n, _ := newStubNode(nil, Config{
		CheckpointEvery:    10 * time.Second,
		CheckpointAdaptive: true,
	})
	n.noteFailureSignal(10 * time.Second)
	n.noteFailureSignal(20 * time.Second)
	n.noteFailureSignal(2 * checkpointFailWindow) // first two now outside the window
	if len(n.failObs) != 1 {
		t.Fatalf("failObs = %v, want pruned to 1", n.failObs)
	}
	// Signals are ignored entirely when the policy is not adaptive.
	fixed, _ := newStubNode(nil, Config{CheckpointEvery: 10 * time.Second})
	fixed.noteFailureSignal(time.Second)
	if len(fixed.failObs) != 0 {
		t.Fatal("fixed policy recorded a failure observation")
	}
}

func TestCollectPendingCkptsAndMarkShipped(t *testing.T) {
	n, _ := newStubNode(nil, Config{CheckpointEvery: 2 * time.Second})
	idA, idB := orderedIDs()
	idDone := ids.HashString("done-job")
	fresh := &queuedJob{
		prof:  Profile{ID: idA},
		owner: "owner1",
		ckpt:  Checkpoint{JobID: idA, Done: 6 * time.Second},
	}
	shipped := &queuedJob{
		prof:        Profile{ID: idB},
		owner:       "owner2",
		ckpt:        Checkpoint{JobID: idB, Done: 4 * time.Second},
		shippedDone: 4 * time.Second,
	}
	done := &queuedJob{
		prof:    Profile{ID: idDone},
		owner:   "owner1",
		ckpt:    Checkpoint{JobID: idDone, Done: 2 * time.Second},
		dropped: true,
	}
	noCkpt := &queuedJob{prof: Profile{ID: ids.HashString("fresh")}, owner: "owner1"}

	got := n.collectPendingCkpts([]*queuedJob{fresh, shipped, done, noCkpt})
	if len(got) != 1 || got[0].ckpt.JobID != idA || got[0].owner != "owner1" {
		t.Fatalf("collectPendingCkpts = %+v, want only the fresh job", got)
	}

	n.markShipped(got[0])
	if fresh.shippedDone != 6*time.Second {
		t.Fatalf("shippedDone = %v", fresh.shippedDone)
	}
	// Shipping an older snapshot later must not regress the mark.
	n.markShipped(pendingCkpt{job: fresh, ckpt: Checkpoint{JobID: idA, Done: 3 * time.Second}})
	if fresh.shippedDone != 6*time.Second {
		t.Fatalf("shippedDone regressed to %v", fresh.shippedDone)
	}
	if again := n.collectPendingCkpts([]*queuedJob{fresh}); len(again) != 0 {
		t.Fatalf("already-shipped checkpoint collected again: %+v", again)
	}

	// With checkpointing off, nothing is ever collected.
	off, _ := newStubNode(nil, Config{})
	if got := off.collectPendingCkpts([]*queuedJob{fresh}); got != nil {
		t.Fatal("disabled subsystem collected checkpoints")
	}
}

// TestAdoptAlreadyOwnedJobKeepsRecord: an adopt of a job the node
// already owns (a duplicated AdoptReq, a run node re-routed to its
// owner, a voting replica re-registering, an adopt after a promotion)
// must not reset the owner's record, must still absorb a fresher
// checkpoint or register the replica, and is no adoption: it records
// no EvOwnerAdopted and pushes nothing.
func TestAdoptAlreadyOwnedJobKeepsRecord(t *testing.T) {
	id := ids.HashString("job")
	prof := Profile{ID: id, Client: "client"}
	for _, tc := range []struct {
		name   string
		cfg    Config
		own    func(n *Node, rt transport.Runtime) // makes n the job's owner
		adopt  AdoptReq
		verify func(t *testing.T, job *ownedJob)
	}{{
		name: "duplicate",
		cfg:  Config{CheckpointEvery: 2 * time.Second},
		own: func(n *Node, _ transport.Runtime) {
			hold(n, &ownedJob{prof: prof, run: "run1", matched: true, lastHB: 5 * time.Second,
				ckpt: Checkpoint{JobID: id, Run: "run1", Done: 3 * time.Second}})
		},
		adopt: AdoptReq{Prof: prof, Run: "run1", Ckpt: Checkpoint{JobID: id, Run: "run1", Done: 8 * time.Second}},
		verify: func(t *testing.T, job *ownedJob) {
			if job.run != "run1" || !job.matched {
				t.Fatalf("duplicate adopt rewrote the record: %+v", job)
			}
			if job.lastHB != 5*time.Second {
				t.Fatalf("duplicate adopt touched lastHB: %v", job.lastHB)
			}
			if job.ckpt.Done != 8*time.Second {
				t.Fatalf("fresher checkpoint not absorbed on duplicate adopt: %v", job.ckpt.Done)
			}
		},
	}, {
		name:  "voting",
		cfg:   Config{Replicas: 2, Quorum: 2},
		own:   func(n *Node, _ transport.Runtime) { votingJob(n, id, "run1") },
		adopt: AdoptReq{Prof: prof, Run: "run2"},
		verify: func(t *testing.T, job *ownedJob) {
			if !job.vote.hasReplica("run1") || !job.vote.hasReplica("run2") {
				t.Fatalf("re-registering replica not added to the vote: %+v", job.vote.reps)
			}
		},
	}, {
		name: "promoted",
		cfg:  Config{CheckpointEvery: 2 * time.Second},
		own: func(n *Node, rt transport.Runtime) {
			or := OwnerRecord{Prof: prof, Run: "run1", Matched: true, Ckpt: Checkpoint{JobID: id, Run: "run1", Done: 3 * time.Second}}
			n.onReplicaOwn(rt, replpkg.Record{Key: id, Epoch: 2, Owner: "dead", Data: encodeOwnerRecord(or)}, true)
		},
		adopt: AdoptReq{Prof: prof, Run: "run1", Ckpt: Checkpoint{JobID: id, Run: "run1", Done: 8 * time.Second}},
		verify: func(t *testing.T, job *ownedJob) {
			if job.run != "run1" || !job.matched || job.ckpt.Done != 8*time.Second {
				t.Fatalf("adopt after promotion: record %+v", job)
			}
		},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			adopted := 0
			rec := RecorderFunc(func(ev Event) {
				if ev.Kind == EvOwnerAdopted {
					adopted++
				}
			})
			n, h := newPushNode(rec, tc.cfg)
			rt := &stubRT{now: 20 * time.Second, rng: rand.New(rand.NewSource(1))}
			tc.own(n, rt)
			job := n.owned[id]
			pushed := pushedKinds(t, h)
			if _, err := n.handleAdopt(rt, tc.adopt.Run, tc.adopt); err != nil {
				t.Fatalf("handleAdopt: %v", err)
			}
			if n.owned[id] != job {
				t.Fatal("adopt of an owned job replaced its record")
			}
			tc.verify(t, job)
			pushed = append(pushed, pushedKinds(t, h)...)
			if adopted != 0 || slices.Contains(pushed, EvOwnerAdopted.String()) {
				t.Fatalf("adopt of an owned job recorded EvOwnerAdopted %d times and pushed %v; want neither", adopted, pushed)
			}

			// A first-time adopt is an adoption: recorded and pushed once.
			id2 := ids.HashString("job2")
			prof2 := Profile{ID: id2, Client: "client"}
			if _, err := n.handleAdopt(rt, "run2", AdoptReq{Prof: prof2, Run: "run2",
				Ckpt: Checkpoint{JobID: id2, Run: "run2", Done: 4 * time.Second}}); err != nil {
				t.Fatalf("handleAdopt: %v", err)
			}
			if adopted != 1 || !slices.Equal(pushedKinds(t, h), []string{EvOwnerAdopted.String()}) {
				t.Fatalf("fresh adopt: EvOwnerAdopted recorded %d times, want 1 and one push", adopted)
			}
			if job2 := n.owned[id2]; tc.cfg.Replicas == 0 && (job2.run != "run2" || job2.ckpt.Done != 4*time.Second) {
				t.Fatalf("fresh adopt record wrong: %+v", job2)
			}
		})
	}
}

// newPushNode is newStubNode with a pub/sub broker, whose pushes
// pushedKinds reads.
func newPushNode(rec Recorder, cfg Config) (*Node, *stubHost) {
	h := &stubHost{addr: "owner"}
	cfg.Notify = pubsub.New(h, pubsub.Config{Lookup: func(transport.Runtime, ids.ID) (transport.Addr, error) { return "rdv", nil }})
	cfg.Notify.Start()
	return NewNode(h, resource.Vector{4, 1024, 100}, "linux", nil, stubMatcher{}, rec, cfg), h
}

// pushedKinds runs the broker flushes h has spawned since the last
// call and returns the kinds of the job updates they published.
func pushedKinds(t *testing.T, h *stubHost) []string {
	t.Helper()
	var kinds []string
	rt := &stubRT{rng: rand.New(rand.NewSource(1)), call: func(_ transport.Addr, method string, req any) (any, error) {
		for _, p := range req.(pubsub.PublishReq).Payloads {
			u, err := DecodeJobUpdate(p)
			if err != nil {
				t.Fatalf("decode push: %v", err)
			}
			kinds = append(kinds, u.Kind)
		}
		return pubsub.PublishResp{}, nil
	}}
	for i, name := range h.spawns {
		if name == "pubsub.kick" && h.procs[i] != nil {
			fn := h.procs[i]
			h.procs[i] = nil
			fn(rt)
		}
	}
	return kinds
}

// TestStatusForCompletedJob: once a job completes the owner forgets it,
// so a status probe must answer Known=false — the signal the client
// monitor uses to resubmit, and the reason completed jobs must never
// linger as Known.
func TestStatusForCompletedJob(t *testing.T) {
	id := ids.HashString("job")
	n, _ := newStubNode(nil, Config{})
	hold(n, &ownedJob{
		prof:    Profile{ID: id, Client: "client"},
		run:     "run1",
		matched: true,
	})
	rt := &stubRT{now: 10 * time.Second, rng: rand.New(rand.NewSource(2))}

	raw, err := n.handleStatus(rt, "client", StatusReq{JobID: id})
	if err != nil {
		t.Fatalf("handleStatus: %v", err)
	}
	if resp := raw.(StatusResp); !resp.Known || resp.Run != "run1" {
		t.Fatalf("live job status = %+v", resp)
	}

	if _, err := n.handleComplete(rt, "run1", CompleteReq{JobID: id, Run: "run1"}); err != nil {
		t.Fatalf("handleComplete: %v", err)
	}
	raw, err = n.handleStatus(rt, "client", StatusReq{JobID: id})
	if err != nil {
		t.Fatalf("handleStatus: %v", err)
	}
	if resp := raw.(StatusResp); resp.Known {
		t.Fatalf("completed job still Known: %+v", resp)
	}
	// Entirely unknown jobs answer the same way.
	raw, _ = n.handleStatus(rt, "client", StatusReq{JobID: ids.HashString("never")})
	if resp := raw.(StatusResp); resp.Known {
		t.Fatal("unknown job reported Known")
	}
}

// TestHandleCheckpointStandalone covers the oversized-snapshot RPC:
// known jobs absorb valid checkpoints, unknown jobs are ignored, and
// the per-job acceptance rules still apply.
func TestHandleCheckpointStandalone(t *testing.T) {
	id := ids.HashString("job")
	n, _ := newStubNode(nil, Config{CheckpointEvery: 2 * time.Second})
	hold(n, &ownedJob{
		prof:    Profile{ID: id, Client: "client"},
		run:     "run1",
		matched: true,
	})
	rt := &stubRT{now: 10 * time.Second, rng: rand.New(rand.NewSource(3))}

	big := Checkpoint{JobID: id, Run: "run1", Done: 7 * time.Second, Data: make([]byte, 64<<10)}
	if _, err := n.handleCheckpoint(rt, "run1", CheckpointReq{Run: "run1", Ckpt: big}); err != nil {
		t.Fatalf("handleCheckpoint: %v", err)
	}
	if got := n.owned[id].ckpt.Done; got != 7*time.Second {
		t.Fatalf("standalone checkpoint not absorbed: %v", got)
	}
	// Unknown job: silently ignored, no entry materializes.
	stray := Checkpoint{JobID: ids.HashString("stray"), Run: "run1", Done: time.Second}
	if _, err := n.handleCheckpoint(rt, "run1", CheckpointReq{Run: "run1", Ckpt: stray}); err != nil {
		t.Fatalf("handleCheckpoint stray: %v", err)
	}
	if len(n.owned) != 1 {
		t.Fatal("stray checkpoint created an owned entry")
	}
	// Wrong-sender checkpoint rejected by the same absorb rules.
	zombie := Checkpoint{JobID: id, Run: "run2", Done: 20 * time.Second}
	_, _ = n.handleCheckpoint(rt, "run2", CheckpointReq{Run: "run2", Ckpt: zombie})
	if got := n.owned[id].ckpt.Done; got != 7*time.Second {
		t.Fatalf("zombie checkpoint absorbed: %v", got)
	}
}
