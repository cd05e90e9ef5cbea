package chord_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/chord"
	"repro/internal/faultinject"
	"repro/internal/ids"
	"repro/internal/transport"
)

// TestContinuousChurn interleaves joins and crashes over several
// minutes of virtual time and checks that the ring re-converges and
// lookups remain correct afterwards — the DHT resilience the desktop
// grid's robustness story rests on.
func TestContinuousChurn(t *testing.T) {
	r := newRing(t, 42)
	defer r.shutdown()
	const initial = 16
	for i := 0; i < initial; i++ {
		r.addNode(chord.Config{})
	}
	chord.WarmStart(r.nodes)
	for _, n := range r.nodes {
		n.Start()
	}
	r.e.RunFor(5 * time.Second)

	// Six churn events: three joins, three crashes, 10 s apart.
	for k := 0; k < 3; k++ {
		n := r.addNode(chord.Config{})
		idx := len(r.nodes) - 1
		r.do(idx, func(rt transport.Runtime) {
			for try := 0; try < 5; try++ {
				if err := n.Join(rt, "n000"); err == nil {
					n.Start()
					return
				}
				rt.Sleep(2 * time.Second)
			}
			t.Errorf("join %d failed", idx)
		})
		r.e.RunFor(10 * time.Second)
		victim := 1 + k*4 // spread victims; never n000 (test driver)
		r.hosts[victim].Crash()
		r.e.RunFor(10 * time.Second)
	}
	r.e.RunFor(90 * time.Second)

	if err := chord.CheckRing(r.sortedLive()); err != nil {
		t.Fatalf("ring not converged after churn: %v", err)
	}
	// Lookup correctness against the reference owner order.
	live := r.sortedLive()
	liveIdx := -1
	for i, h := range r.hosts {
		if h.Up() {
			liveIdx = i
			break
		}
	}
	for trial := 0; trial < 25; trial++ {
		key := ids.HashString(fmt.Sprintf("churn-key-%d", trial))
		want := live[chord.OwnerIndex(live, key)].ID()
		r.do(liveIdx, func(rt transport.Runtime) {
			owner, _, err := r.nodes[liveIdx].Lookup(rt, key)
			if err != nil {
				t.Errorf("lookup: %v", err)
				return
			}
			if owner.ID != want {
				t.Errorf("key %s: owner %s, want %s", key.Short(), owner.ID.Short(), want.Short())
			}
		})
	}
}

// TestLookupWithMessageLoss verifies lookups retry around transient
// packet loss.
func TestLookupWithMessageLoss(t *testing.T) {
	r := newRing(t, 43)
	defer r.shutdown()
	for i := 0; i < 24; i++ {
		r.addNode(chord.Config{})
	}
	chord.WarmStart(r.nodes)
	r.net.Faults = faultinject.NewKeyed(43, faultinject.Rule{DropProb: 0.05})
	r.net.CallTimeout = 500 * time.Millisecond
	okCount := 0
	for trial := 0; trial < 20; trial++ {
		key := ids.HashString(fmt.Sprintf("lossy-%d", trial))
		src := trial % len(r.nodes)
		r.do(src, func(rt transport.Runtime) {
			if _, _, err := r.nodes[src].Lookup(rt, key); err == nil {
				okCount++
			}
		})
	}
	// 5% loss with per-hop retries: the vast majority must succeed.
	if okCount < 16 {
		t.Fatalf("only %d/20 lookups succeeded under 5%% loss", okCount)
	}
}
