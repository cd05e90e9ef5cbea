package chord_test

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chord"
)

// TestDeadPredecessorPurged is the regression test for the
// checkpred-side cleanup: when the predecessor fails its liveness ping,
// the node must clear the predecessor pointer AND purge the dead ref
// from its successor list and fingers immediately. Before the fix, the
// dead ref lingered until stabilization propagated the failure around
// the ring — so the test parks stabilization on a 30 s period and gives
// the checkpred loop a 5 s budget that only the purge path can meet.
func TestDeadPredecessorPurged(t *testing.T) {
	r := newRing(t, 7)
	defer r.shutdown()
	cfg := chord.Config{
		StabilizeEvery:  30 * time.Second,
		FixFingersEvery: 30 * time.Second,
		CheckPredEvery:  500 * time.Millisecond,
	}
	const initial = 8
	for i := 0; i < initial; i++ {
		r.addNode(cfg)
	}
	chord.WarmStart(r.nodes)
	for _, n := range r.nodes {
		n.Start()
	}
	r.e.RunFor(2 * time.Second)

	// The victim is the lowest-ID node; its ring successor watches it as
	// predecessor. WarmStart put the victim in every nearby successor
	// list, including the watcher's.
	live := r.sortedLive()
	victim, watcher := live[0], live[1]
	found := false
	for _, s := range watcher.SuccessorList() {
		if s.ID == victim.ID() {
			found = true
		}
	}
	if !found {
		t.Fatal("setup: victim not in watcher's successor list")
	}
	var kicks atomic.Int64
	watcher.OnRingChange(func() { kicks.Add(1) })

	var victimIdx int
	for i, n := range r.nodes {
		if n == victim {
			victimIdx = i
		}
	}
	r.hosts[victimIdx].Crash()
	r.e.RunFor(5 * time.Second) // several checkpred rounds, zero stabilize rounds

	if pred := watcher.Predecessor(); !pred.IsZero() && pred.ID == victim.ID() {
		t.Fatal("dead predecessor still installed after checkpred rounds")
	}
	for _, s := range watcher.SuccessorList() {
		if s.ID == victim.ID() {
			t.Fatal("dead predecessor still in successor list: successor(k) targets a corpse")
		}
	}
	for _, f := range watcher.FingerTable() {
		if !f.IsZero() && f.ID == victim.ID() {
			t.Fatal("dead predecessor still in finger table")
		}
	}
	if kicks.Load() == 0 {
		t.Fatal("ring-change notification did not fire on the purge")
	}
}
