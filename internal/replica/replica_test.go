package replica

import (
	"sync"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// scriptRing is a fully scripted Ring: tests set the successor list and
// per-key ownership directly, standing in for chord's stabilization.
type scriptRing struct {
	mu    sync.Mutex
	self  transport.Addr
	succs []transport.Addr
	owns  map[ids.ID]bool
}

func (r *scriptRing) Self() transport.Addr { return r.self }

func (r *scriptRing) Successors(k int) []transport.Addr {
	r.mu.Lock()
	defer r.mu.Unlock()
	if k > len(r.succs) {
		k = len(r.succs)
	}
	return append([]transport.Addr(nil), r.succs[:k]...)
}

func (r *scriptRing) Owns(key ids.ID) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.owns[key]
}

func (r *scriptRing) setSuccs(succs ...transport.Addr) {
	r.mu.Lock()
	r.succs = succs
	r.mu.Unlock()
}

func (r *scriptRing) setOwns(key ids.ID, v bool) {
	r.mu.Lock()
	if r.owns == nil {
		r.owns = make(map[ids.ID]bool)
	}
	r.owns[key] = v
	r.mu.Unlock()
}

type ownEvent struct {
	rec      Record
	promoted bool
}

// testNode is one manager plus its scripted ring and callback log.
type testNode struct {
	host *simnet.Endpoint
	ring *scriptRing
	mgr  *Manager

	mu     sync.Mutex
	owned  []ownEvent
	fenced []Record
}

func (n *testNode) ownEvents() []ownEvent {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]ownEvent(nil), n.owned...)
}

func (n *testNode) fencedEvents() []Record {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]Record(nil), n.fenced...)
}

type harness struct {
	t     *testing.T
	e     *sim.Engine
	net   *simnet.Net
	nodes map[string]*testNode
}

func newHarness(t *testing.T, seed int64) *harness {
	e := sim.NewEngine(seed)
	net := simnet.New(e)
	net.Latency = simnet.UniformLatency{Min: 5 * time.Millisecond, Max: 20 * time.Millisecond}
	return &harness{t: t, e: e, net: net, nodes: make(map[string]*testNode)}
}

func (h *harness) add(name string, k int) *testNode {
	host := h.net.NewEndpoint(transport.Addr(name))
	n := &testNode{host: host, ring: &scriptRing{self: transport.Addr(name)}}
	n.mgr = New(host, n.ring, Config{
		K: k,
		OnOwn: func(rt transport.Runtime, rec Record, promoted bool) {
			n.mu.Lock()
			n.owned = append(n.owned, ownEvent{rec: rec, promoted: promoted})
			n.mu.Unlock()
		},
		OnFenced: func(rt transport.Runtime, rec Record) {
			n.mu.Lock()
			n.fenced = append(n.fenced, rec)
			n.mu.Unlock()
		},
	})
	h.nodes[name] = n
	return n
}

// do runs fn inside a proc on the named node and drives the sim until
// it returns.
func (h *harness) do(name string, fn func(rt transport.Runtime)) {
	done := false
	h.nodes[name].host.Go("test", func(rt transport.Runtime) {
		defer func() { done = true }()
		fn(rt)
	})
	for !done {
		h.e.RunFor(time.Second)
	}
}

func key(s string) ids.ID { return ids.HashString(s) }

func TestNewerOrdering(t *testing.T) {
	base := Record{Epoch: 1, Version: 3, Owner: "b"}
	cases := []struct {
		name string
		r    Record
		want bool
	}{
		{"higher epoch wins over higher version", Record{Epoch: 2, Version: 0, Owner: "a"}, true},
		{"lower epoch loses", Record{Epoch: 0, Version: 99, Owner: "z"}, false},
		{"same epoch higher version wins", Record{Epoch: 1, Version: 4, Owner: "a"}, true},
		{"same epoch lower version loses", Record{Epoch: 1, Version: 2, Owner: "z"}, false},
		{"exact tie broken by owner address", Record{Epoch: 1, Version: 3, Owner: "c"}, true},
		{"identical is not newer", Record{Epoch: 1, Version: 3, Owner: "b"}, false},
	}
	for _, tc := range cases {
		if got := tc.r.Newer(base); got != tc.want {
			t.Errorf("%s: Newer = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestPushReplicatesAndAcks: an owned record reaches the successor in
// one anti-entropy round and the owner records the ack.
func TestPushReplicatesAndAcks(t *testing.T) {
	h := newHarness(t, 1)
	a := h.add("a", 2)
	b := h.add("b", 2)
	defer h.e.Shutdown()
	k := key("job-1")
	a.ring.setSuccs("b")
	a.ring.setOwns(k, true)

	a.mgr.Publish(k, []byte("v0"))
	h.do("a", func(rt transport.Runtime) { a.mgr.pushOnce(rt) })

	st := b.mgr.Status(k)
	if !st.Known || st.Owner != "a" || st.Deleted {
		t.Fatalf("replica status = %+v, want known live record owned by a", st)
	}
	ost := a.mgr.Status(k)
	if len(ost.Peers) != 1 || !ost.Peers[0].Acked {
		t.Fatalf("owner peer status = %+v, want one acked peer", ost.Peers)
	}

	// A subsequent write invalidates the ack until the next round.
	a.mgr.Publish(k, []byte("v1"))
	if st := a.mgr.Status(k); st.Peers[0].Acked {
		t.Fatal("stale ack survived a new version")
	}
	h.do("a", func(rt transport.Runtime) { a.mgr.pushOnce(rt) })
	if st := a.mgr.Status(k); !st.Peers[0].Acked {
		t.Fatal("replica did not re-ack after push")
	}
}

// TestPromotionAfterOwnerDeath: the replica probes the owner, declares
// it dead after DeadAfter, and — because the scripted ring now assigns
// it the key — promotes itself with a fresh epoch.
func TestPromotionAfterOwnerDeath(t *testing.T) {
	h := newHarness(t, 2)
	a := h.add("a", 1)
	b := h.add("b", 1)
	defer h.e.Shutdown()
	k := key("job-2")
	a.ring.setSuccs("b")
	a.ring.setOwns(k, true)
	a.mgr.Publish(k, []byte("state"))
	h.do("a", func(rt transport.Runtime) { a.mgr.pushOnce(rt) })

	a.host.Crash()
	b.ring.setOwns(k, true) // ring hands the dead owner's arc to b

	h.do("b", func(rt transport.Runtime) { b.mgr.probeOnce(rt) }) // first failure: starts the clock
	if evs := b.ownEvents(); len(evs) != 0 {
		t.Fatalf("promoted before DeadAfter: %+v", evs)
	}
	h.e.RunFor(4 * time.Second) // DeadAfter defaults to 3 s
	h.do("b", func(rt transport.Runtime) { b.mgr.probeOnce(rt) })

	evs := b.ownEvents()
	if len(evs) != 1 || !evs[0].promoted {
		t.Fatalf("own events = %+v, want one promotion", evs)
	}
	if evs[0].rec.Epoch != 1 || evs[0].rec.Owner != "b" || string(evs[0].rec.Data) != "state" {
		t.Fatalf("promoted record = %+v, want epoch 1 owned by b with replicated data", evs[0].rec)
	}
}

// TestStaleOwnerFenced: an owner that resurfaces after a replica
// promoted finds the newer epoch during its own push round, defers
// (the ring no longer assigns it the key), and gets the OnFenced
// callback; the promoted side keeps ownership.
func TestStaleOwnerFenced(t *testing.T) {
	h := newHarness(t, 3)
	a := h.add("a", 1)
	b := h.add("b", 1)
	defer h.e.Shutdown()
	k := key("job-3")
	a.ring.setSuccs("b")
	a.ring.setOwns(k, true)
	a.mgr.Publish(k, []byte("state"))
	h.do("a", func(rt transport.Runtime) { a.mgr.pushOnce(rt) })

	a.host.Crash()
	b.ring.setOwns(k, true)
	h.do("b", func(rt transport.Runtime) { b.mgr.probeOnce(rt) })
	h.e.RunFor(4 * time.Second)
	h.do("b", func(rt transport.Runtime) { b.mgr.probeOnce(rt) })

	// The old owner comes back with its pre-crash state intact (a healed
	// partition rather than a process restart) but the ring has moved on.
	a.host.Restart()
	a.ring.setOwns(k, false)
	h.do("a", func(rt transport.Runtime) { a.mgr.pushOnce(rt) })

	fenced := a.fencedEvents()
	if len(fenced) != 1 || fenced[0].Key != k || fenced[0].Owner != "b" {
		t.Fatalf("fenced events = %+v, want one fencing by b", fenced)
	}
	if st := a.mgr.Status(k); st.Owner != "b" || st.Epoch != 1 {
		t.Fatalf("stale owner's record = %+v, want deferred to b@epoch1", st)
	}
}

// TestEscalationWhenRingStillOurs: the mirror case — the ring still
// assigns the contested key to the pushed-at node, so instead of
// deferring it escalates above the remote epoch and fences the pusher.
func TestEscalationWhenRingStillOurs(t *testing.T) {
	h := newHarness(t, 4)
	a := h.add("a", 1)
	b := h.add("b", 1)
	defer h.e.Shutdown()
	k := key("job-4")
	// Both sides claim the key (a partition both halves survived).
	a.ring.setSuccs("b")
	a.ring.setOwns(k, true)
	a.mgr.Publish(k, []byte("a-state"))
	a.mgr.Publish(k, []byte("a-state-2")) // version 1: strictly newer than b's
	b.ring.setSuccs("a")
	b.ring.setOwns(k, true)
	b.mgr.Publish(k, []byte("b-state"))

	// a pushes its older record at b; b escalates, a defers (a's ring
	// claim is irrelevant — only the receiver's matters on this path,
	// and the returned escalated epoch beats a's record outright).
	a.ring.setOwns(k, false)
	h.do("a", func(rt transport.Runtime) { a.mgr.pushOnce(rt) })

	bst := b.mgr.Status(k)
	if bst.Owner != "b" || bst.Epoch != 1 {
		t.Fatalf("receiver status = %+v, want escalated b@epoch1", bst)
	}
	ast := a.mgr.Status(k)
	if ast.Owner != "b" || ast.Epoch != 1 {
		t.Fatalf("pusher status = %+v, want deferred to b@epoch1", ast)
	}
	if fenced := a.fencedEvents(); len(fenced) != 1 {
		t.Fatalf("pusher fenced events = %+v, want exactly one", fenced)
	}
}

// TestRestoreAfterOwnerRestart: a restarted owner (state wiped by
// Reset) answers probes without the record; the replica pushes it back
// and the owner gets OnOwn(promoted=false) in the original epoch.
func TestRestoreAfterOwnerRestart(t *testing.T) {
	h := newHarness(t, 5)
	a := h.add("a", 1)
	b := h.add("b", 1)
	defer h.e.Shutdown()
	k := key("job-5")
	a.ring.setSuccs("b")
	a.ring.setOwns(k, true)
	a.mgr.Publish(k, []byte("progress"))
	h.do("a", func(rt transport.Runtime) { a.mgr.pushOnce(rt) })

	a.mgr.Reset() // crash+restart: soft state gone, node stays reachable
	h.do("b", func(rt transport.Runtime) { b.mgr.probeOnce(rt) })

	evs := a.ownEvents()
	if len(evs) != 1 || evs[0].promoted {
		t.Fatalf("own events = %+v, want one restore", evs)
	}
	if evs[0].rec.Epoch != 0 || string(evs[0].rec.Data) != "progress" {
		t.Fatalf("restored record = %+v, want original epoch and data", evs[0].rec)
	}
	if evs := b.ownEvents(); len(evs) != 0 {
		t.Fatalf("replica should not promote across a successful probe, got %+v", evs)
	}
}

// TestRetargetAfterSuccessorChange: when stabilization hands the owner
// a different successor list, the next push round replicates to the
// new target without any explicit migration step.
func TestRetargetAfterSuccessorChange(t *testing.T) {
	h := newHarness(t, 6)
	a := h.add("a", 1)
	b := h.add("b", 1)
	c := h.add("c", 1)
	defer h.e.Shutdown()
	k := key("job-6")
	a.ring.setSuccs("b")
	a.ring.setOwns(k, true)
	a.mgr.Publish(k, []byte("v"))
	h.do("a", func(rt transport.Runtime) { a.mgr.pushOnce(rt) })
	if !b.mgr.Status(k).Known {
		t.Fatal("first successor missing record")
	}

	a.ring.setSuccs("c") // b left the successor list
	h.do("a", func(rt transport.Runtime) { a.mgr.pushOnce(rt) })
	if !c.mgr.Status(k).Known {
		t.Fatal("record not re-targeted to new successor")
	}
	st := a.mgr.Status(k)
	if len(st.Peers) != 1 || st.Peers[0].Addr != "c" || !st.Peers[0].Acked {
		t.Fatalf("owner peers = %+v, want acked c only", st.Peers)
	}
}

// TestTombstoneReplicatesAndGC: a Delete fans out as a tombstone that
// flips the replica's Responsible answer, and both copies are dropped
// once the GC retention passes.
func TestTombstoneReplicatesAndGC(t *testing.T) {
	h := newHarness(t, 7)
	a := h.add("a", 1)
	b := h.add("b", 1)
	defer h.e.Shutdown()
	k := key("job-7")
	a.ring.setSuccs("b")
	a.ring.setOwns(k, true)
	a.mgr.Publish(k, []byte("v"))
	h.do("a", func(rt transport.Runtime) { a.mgr.pushOnce(rt) })
	h.do("b", func(rt transport.Runtime) {
		if !b.mgr.Responsible(rt.Now(), k) {
			t.Error("replica of a live record should report responsible")
		}
	})

	h.do("a", func(rt transport.Runtime) {
		a.mgr.Delete(rt.Now(), k)
		a.mgr.pushOnce(rt)
	})
	st := b.mgr.Status(k)
	if !st.Known || !st.Deleted {
		t.Fatalf("replica status after delete = %+v, want tombstone", st)
	}
	h.do("b", func(rt transport.Runtime) {
		if b.mgr.Responsible(rt.Now(), k) {
			t.Error("tombstoned record should not be responsible")
		}
	})

	h.e.RunFor(3 * time.Minute) // gcAfter is 2 min
	h.do("a", func(rt transport.Runtime) { a.mgr.pushOnce(rt) })
	h.do("b", func(rt transport.Runtime) { b.mgr.gc(rt.Now()) })
	if a.mgr.Status(k).Known || b.mgr.Status(k).Known {
		t.Fatal("tombstones survived GC")
	}
}

// TestResponsibleTracksOwnerLiveness: a replica vouches for a record
// only while the owner has not been failing probes past DeadAfter —
// the property the grid's client-status fallback depends on.
func TestResponsibleTracksOwnerLiveness(t *testing.T) {
	h := newHarness(t, 8)
	a := h.add("a", 1)
	b := h.add("b", 1)
	defer h.e.Shutdown()
	k := key("job-8")
	a.ring.setSuccs("b")
	a.ring.setOwns(k, true)
	a.mgr.Publish(k, []byte("v"))
	h.do("a", func(rt transport.Runtime) { a.mgr.pushOnce(rt) })

	a.host.Crash()
	h.do("b", func(rt transport.Runtime) { b.mgr.probeOnce(rt) })
	h.do("b", func(rt transport.Runtime) {
		if !b.mgr.Responsible(rt.Now(), k) {
			t.Error("owner only just went silent; replica should still vouch")
		}
	})
	h.e.RunFor(4 * time.Second)
	h.do("b", func(rt transport.Runtime) {
		if b.mgr.Responsible(rt.Now(), k) {
			t.Error("owner silent past DeadAfter; replica must stop vouching")
		}
	})
}

// TestKickCoalesces: Kick schedules exactly one push+probe round per
// burst of ring-change notifications.
func TestKickCoalesces(t *testing.T) {
	h := newHarness(t, 9)
	a := h.add("a", 1)
	b := h.add("b", 1)
	defer h.e.Shutdown()
	k := key("job-9")
	a.ring.setSuccs("b")
	a.ring.setOwns(k, true)
	a.mgr.Start()
	a.mgr.Publish(k, []byte("v"))
	for i := 0; i < 10; i++ {
		a.mgr.Kick()
	}
	h.e.RunFor(500 * time.Millisecond) // before the first periodic round
	if !b.mgr.Status(k).Known {
		t.Fatal("kick did not trigger an immediate push")
	}
}
