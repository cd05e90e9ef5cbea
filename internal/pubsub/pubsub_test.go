package pubsub

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/replica"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// scriptRing is a fully scripted replica.Ring: tests set the successor
// list and per-key ownership directly, standing in for chord.
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

// testNode is one broker plus its scripted ring and delivery log.
type testNode struct {
	host *simnet.Endpoint
	ring *scriptRing
	b    *Broker

	mu  sync.Mutex
	got []string // payloads delivered via OnEvent, in order
}

func (n *testNode) events() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]string(nil), n.got...)
}

type harness struct {
	t   *testing.T
	e   *sim.Engine
	net *simnet.Net

	mu  sync.Mutex
	rdv map[ids.ID]transport.Addr // scripted topic -> rendezvous table

	nodes map[string]*testNode
}

func newHarness(t *testing.T, seed int64) *harness {
	e := sim.NewEngine(seed)
	net := simnet.New(e)
	net.Latency = simnet.UniformLatency{Min: 5 * time.Millisecond, Max: 20 * time.Millisecond}
	return &harness{t: t, e: e, net: net, rdv: make(map[ids.ID]transport.Addr), nodes: make(map[string]*testNode)}
}

func (h *harness) setRendezvous(topic ids.ID, addr transport.Addr) {
	h.mu.Lock()
	h.rdv[topic] = addr
	h.mu.Unlock()
}

func (h *harness) lookup(rt transport.Runtime, key ids.ID) (transport.Addr, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	a, ok := h.rdv[key]
	if !ok {
		return "", fmt.Errorf("pubsub test: no rendezvous scripted for %s", key.Short())
	}
	return a, nil
}

// add creates one broker node. k > 0 turns on subscriber-list
// replication over the scripted ring.
func (h *harness) add(name string, k int) *testNode {
	host := h.net.NewEndpoint(transport.Addr(name))
	n := &testNode{host: host, ring: &scriptRing{self: transport.Addr(name)}}
	cfg := Config{Lookup: h.lookup}
	if k > 0 {
		cfg.Ring = n.ring
		cfg.K = k
	}
	n.b = New(host, cfg)
	n.b.SetOnEvent(func(rt transport.Runtime, topic ids.ID, payload []byte) {
		n.mu.Lock()
		n.got = append(n.got, string(payload))
		n.mu.Unlock()
	})
	n.b.Start()
	h.nodes[name] = n
	return n
}

func topicKey(s string) ids.ID { return ids.HashString(s) }

// TestPublishDeliversInOrder: events published from one node reach a
// subscriber on another, exactly once, in publish order.
func TestPublishDeliversInOrder(t *testing.T) {
	h := newHarness(t, 1)
	h.add("rdv", 0)
	sub := h.add("sub", 0)
	pub := h.add("pub", 0)
	defer h.e.Shutdown()
	k := topicKey("job-1")
	h.setRendezvous(k, "rdv")

	sub.b.Subscribe(k)
	h.e.RunFor(2 * time.Second)
	for i := 0; i < 5; i++ {
		pub.b.Publish(k, []byte(fmt.Sprintf("ev-%d", i)))
	}
	h.e.RunFor(3 * time.Second)

	got := sub.events()
	if len(got) != 5 {
		t.Fatalf("delivered = %v, want 5 events", got)
	}
	for i, p := range got {
		if want := fmt.Sprintf("ev-%d", i); p != want {
			t.Fatalf("event %d = %q, want %q (order violated)", i, p, want)
		}
	}
	if st := sub.b.Stats(); st.Delivered != 5 || st.Duplicates != 0 {
		t.Fatalf("subscriber stats = %+v, want 5 delivered 0 duplicates", st)
	}
}

// TestDuplicateNotifyDeduped: the same NotifyReq arriving twice (a
// redelivery race or network duplication) produces one OnEvent call
// and counts a duplicate; the ack watermark still advances.
func TestDuplicateNotifyDeduped(t *testing.T) {
	h := newHarness(t, 2)
	sub := h.add("sub", 0)
	defer h.e.Shutdown()
	k := topicKey("job-2")
	h.setRendezvous(k, "rdv-nowhere") // never contacted: we inject notifies directly

	sub.b.Subscribe(k)
	req := NotifyReq{Topic: k, Epoch: 0, From: "rdv", Events: []Event{
		{Seq: 1, Payload: []byte("a")},
		{Seq: 2, Payload: []byte("b")},
	}}
	var acks []int
	h.do("sub", func(rt transport.Runtime) {
		for i := 0; i < 2; i++ {
			raw, err := sub.b.handleNotify(rt, "rdv", req)
			if err != nil {
				t.Errorf("notify %d: %v", i, err)
				return
			}
			acks = append(acks, raw.(NotifyResp).AckUpTo)
		}
	})

	if got := sub.events(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("delivered = %v, want [a b] exactly once", got)
	}
	if len(acks) != 2 || acks[0] != 2 || acks[1] != 2 {
		t.Fatalf("acks = %v, want cumulative 2 both times", acks)
	}
	if st := sub.b.Stats(); st.Duplicates != 2 || st.Delivered != 2 {
		t.Fatalf("stats = %+v, want 2 duplicates 2 delivered", st)
	}
}

// TestEpochFencing: the same sequence numbers under a different epoch
// are fresh events, not duplicates — the property that makes a
// promoted rendezvous's restarted sequence space safe.
func TestEpochFencing(t *testing.T) {
	h := newHarness(t, 3)
	sub := h.add("sub", 0)
	defer h.e.Shutdown()
	k := topicKey("job-3")
	h.setRendezvous(k, "rdv-nowhere")

	sub.b.Subscribe(k)
	h.do("sub", func(rt transport.Runtime) {
		for _, epoch := range []int{0, 1} {
			req := NotifyReq{Topic: k, Epoch: epoch, From: "rdv", Events: []Event{{Seq: 1, Payload: []byte(fmt.Sprintf("e%d", epoch))}}}
			if _, err := sub.b.handleNotify(rt, "rdv", req); err != nil {
				t.Errorf("epoch %d: %v", epoch, err)
			}
		}
	})
	if got := sub.events(); len(got) != 2 || got[0] != "e0" || got[1] != "e1" {
		t.Fatalf("delivered = %v, want seq 1 accepted under both epochs", got)
	}
	if st := sub.b.Stats(); st.Duplicates != 0 {
		t.Fatalf("stats = %+v, want no duplicates across epochs", st)
	}
}

// TestRendezvousHandoff: with subscriber-list replication on, a dead
// rendezvous's successor promotes the replicated list and delivery
// resumes under a new epoch — subscribers survive the crash.
func TestRendezvousHandoff(t *testing.T) {
	h := newHarness(t, 4)
	a := h.add("a", 1) // rendezvous
	b := h.add("b", 1) // successor, then replacement rendezvous
	sub := h.add("sub", 0)
	pub := h.add("pub", 0)
	defer h.e.Shutdown()
	k := topicKey("job-4")
	h.setRendezvous(k, "a")
	a.ring.setSuccs("b")
	a.ring.setOwns(k, true)

	sub.b.Subscribe(k)
	pub.b.Publish(k, []byte("before"))
	h.e.RunFor(3 * time.Second) // subscribe, deliver, replicate the list

	if got := sub.events(); len(got) != 1 || got[0] != "before" {
		t.Fatalf("pre-crash delivery = %v, want [before]", got)
	}

	a.host.Crash()
	b.ring.setOwns(k, true) // the ring hands a's arc to b
	h.setRendezvous(k, "b") // lookups now resolve to the successor
	b.b.RingChange()
	h.e.RunFor(10 * time.Second) // probe a dead past deadAfter, promote, rebuild topic

	if st := b.b.Stats(); st.Takeovers != 1 {
		t.Fatalf("successor stats = %+v, want exactly one takeover", st)
	}
	pub.b.Publish(k, []byte("after"))
	h.e.RunFor(3 * time.Second)

	got := sub.events()
	if len(got) != 2 || got[1] != "after" {
		t.Fatalf("post-handoff delivery = %v, want [before after]", got)
	}
	if st := sub.b.Stats(); st.Delivered != 2 {
		t.Fatalf("subscriber stats = %+v, want 2 delivered", st)
	}
}

// TestRedeliveryAndAbandon: an event for a briefly-down subscriber is
// redelivered once it returns (at-least-once), while a subscriber that
// never comes back has its event abandoned after redeliverMax; the
// always-reachable subscriber is unaffected throughout.
func TestRedeliveryAndAbandon(t *testing.T) {
	h := newHarness(t, 5)
	rdv := h.add("rdv", 0)
	sub := h.add("sub", 0)
	flaky := h.add("flaky", 0)
	gone := h.add("gone", 0)
	pub := h.add("pub", 0)
	defer h.e.Shutdown()
	k := topicKey("job-5")
	h.setRendezvous(k, "rdv")

	sub.b.Subscribe(k)
	flaky.b.Subscribe(k)
	gone.b.Subscribe(k)
	h.e.RunFor(2 * time.Second)
	flaky.host.Crash()
	gone.host.Crash()

	pub.b.Publish(k, []byte("x"))
	h.e.RunFor(300 * time.Millisecond) // one or two failed attempts at flaky
	flaky.host.Restart()
	h.e.RunFor(30 * time.Second) // flaky catches up; gone exhausts redeliverMax

	if got := sub.events(); len(got) != 1 || got[0] != "x" {
		t.Fatalf("live subscriber got %v, want [x]", got)
	}
	if got := flaky.events(); len(got) != 1 || got[0] != "x" {
		t.Fatalf("recovered subscriber got %v, want [x] (at-least-once violated)", got)
	}
	st := rdv.b.Stats()
	if st.Redelivered == 0 {
		t.Fatalf("rendezvous stats = %+v, want a counted redelivery to the recovered subscriber", st)
	}
	if st.Abandoned == 0 {
		t.Fatalf("rendezvous stats = %+v, want the dead subscriber's event abandoned", st)
	}
}

// TestUnsubscribeStopsDelivery: after an unsubscribe syncs, new
// publishes no longer reach the node, and an empty topic is dropped
// at the rendezvous.
func TestUnsubscribeStopsDelivery(t *testing.T) {
	h := newHarness(t, 6)
	rdv := h.add("rdv", 0)
	sub := h.add("sub", 0)
	pub := h.add("pub", 0)
	defer h.e.Shutdown()
	k := topicKey("job-6")
	h.setRendezvous(k, "rdv")

	sub.b.Subscribe(k)
	h.e.RunFor(2 * time.Second)
	pub.b.Publish(k, []byte("one"))
	h.e.RunFor(2 * time.Second)
	sub.b.Unsubscribe(k)
	h.e.RunFor(2 * time.Second)
	pub.b.Publish(k, []byte("two"))
	h.e.RunFor(3 * time.Second)

	if got := sub.events(); len(got) != 1 || got[0] != "one" {
		t.Fatalf("delivered = %v, want only the pre-unsubscribe event", got)
	}
	rdv.b.mu.Lock()
	_, live := rdv.b.topics[k]
	rdv.b.mu.Unlock()
	if live {
		t.Fatal("empty topic survived the last unsubscribe")
	}
}

// TestNotifiedCountsAckOvertakenByUnsubscribe: a subscriber that
// unsubscribes on its last event (gridctl watch on "completed") gets
// the unsubscribe to the rendezvous before its own ack. The event was
// still delivered and acknowledged, and Stats.Notified must say so.
func TestNotifiedCountsAckOvertakenByUnsubscribe(t *testing.T) {
	h := newHarness(t, 7)
	rdv := h.add("rdv", 0)
	pub := h.add("pub", 0)
	defer h.e.Shutdown()
	k := topicKey("job-7")
	h.setRendezvous(k, "rdv")

	watcher := h.net.NewEndpoint("watcher")
	watcher.Handle(MNotify, func(rt transport.Runtime, from transport.Addr, req any) (any, error) {
		r := req.(NotifyReq)
		if _, err := rt.Call(from, MUnsubscribe, UnsubscribeReq{Topic: k, Sub: "watcher"}); err != nil {
			t.Errorf("unsubscribe: %v", err)
		}
		return NotifyResp{AckUpTo: r.Events[len(r.Events)-1].Seq}, nil
	})
	watcher.Go("subscribe", func(rt transport.Runtime) {
		if _, err := rt.Call("rdv", MSubscribe, SubscribeReq{Topic: k, Sub: "watcher"}); err != nil {
			t.Errorf("subscribe: %v", err)
		}
	})
	h.e.RunFor(time.Second)
	pub.b.Publish(k, []byte("completed"))
	h.e.RunFor(3 * time.Second)

	if st := rdv.b.Stats(); st.Notified != 1 {
		t.Fatalf("rendezvous stats = %+v, want the acknowledged event counted as notified", st)
	}
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

var _ replica.Ring = (*scriptRing)(nil)
