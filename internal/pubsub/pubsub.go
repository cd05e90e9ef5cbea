// Package pubsub is a topic-based publish/subscribe overlay on the
// DHT (DESIGN.md §13). A topic is an ids.ID that hashes onto the
// Chord ring; the ring successor of that key is the topic's
// *rendezvous* node. Subscribers register there, publishers route
// events there, and the rendezvous fans each event out to every
// subscriber with at-least-once delivery:
//
//   - the rendezvous mints a per-topic sequence number for every
//     event and keeps the events a subscriber has not acknowledged;
//   - unacknowledged events are redelivered every redeliverEvery up
//     to redeliverMax attempts, then abandoned (the application's
//     fallback path — the grid's slow liveness polling — covers the
//     remainder);
//   - receivers deduplicate on (topic, epoch, seq) with a contiguous
//     watermark plus a sparse seen-set, so duplicates from
//     redelivery or network-level duplication collapse to one
//     OnEvent callback.
//
// Rendezvous death does not drop subscribers: the subscriber list is
// a replica.Record replicated over the rendezvous's successor list
// (a second replica.Manager under the "pubsub." method prefix, so it
// coexists with the grid's owner-state manager). When the rendezvous
// dies, a successor promotes the record, rebuilds the topic from the
// replicated list, and resumes delivery under the record's new
// epoch. Epochs fence sequence numbers: a promoted rendezvous
// restarts seq from 1, and receivers scope their dedup watermark per
// epoch, so reused sequence numbers are never misread as duplicates.
// Events in flight at the moment of the crash may be lost — the
// subsystem promises at-least-once only while a rendezvous is up,
// and the application's silence fallback covers handoff gaps.
//
// One Broker per node plays all three roles (publisher, subscriber,
// rendezvous). The public API (Subscribe, Unsubscribe, Publish)
// never blocks and never performs I/O on the caller's execution
// context: work is queued under the broker lock and drained by
// broker-owned activities. Under the deterministic simulator this
// keeps the protocol hot path's timing untouched — the
// trace-neutrality invariant the grid layer relies on.
package pubsub

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/transport"
)

// Wire methods.
const (
	MSubscribe   = "pubsub.subscribe"   // SubscribeReq -> SubscribeResp
	MUnsubscribe = "pubsub.unsubscribe" // UnsubscribeReq -> UnsubscribeResp
	MPublish     = "pubsub.publish"     // PublishReq -> PublishResp
	MNotify      = "pubsub.notify"      // NotifyReq -> NotifyResp
	MAck         = "pubsub.ack"         // AckReq -> AckResp
	MResolve     = "pubsub.resolve"     // ResolveReq -> ResolveResp
)

// ReplicaPrefix namespaces the broker's subscriber-list replica
// manager, yielding "pubsub.replica.put" etc. so it never clashes
// with the grid's owner-state manager on the same host.
const ReplicaPrefix = "pubsub."

// SubscribeReq registers Sub as a subscriber of Topic at the
// receiving rendezvous.
type SubscribeReq struct {
	Topic ids.ID
	Sub   transport.Addr
}

// SubscribeResp acknowledges a subscription; Epoch is the topic's
// current delivery epoch (informational — receivers learn epochs
// authoritatively from NotifyReq).
type SubscribeResp struct {
	Epoch int
}

// UnsubscribeReq removes Sub from Topic's subscriber list.
type UnsubscribeReq struct {
	Topic ids.ID
	Sub   transport.Addr
}

// UnsubscribeResp acknowledges an unsubscribe.
type UnsubscribeResp struct{}

// PublishReq ships a batch of event payloads for Topic to its
// rendezvous, which assigns sequence numbers in arrival order.
type PublishReq struct {
	Topic    ids.ID
	From     transport.Addr
	Payloads [][]byte
}

// PublishResp returns the last sequence number assigned to the batch.
type PublishResp struct {
	Seq int
}

// Event is one published payload with its rendezvous-assigned
// per-topic sequence number (1-based within an epoch).
type Event struct {
	Seq     int
	Payload []byte
}

// NotifyReq delivers a batch of events for Topic to one subscriber.
// Epoch scopes the sequence numbers: receivers deduplicate on
// (topic, epoch, seq).
type NotifyReq struct {
	Topic  ids.ID
	Epoch  int
	From   transport.Addr
	Events []Event
}

// NotifyResp carries the receiver's cumulative acknowledgement: every
// seq <= AckUpTo in this epoch has been received.
type NotifyResp struct {
	AckUpTo int
}

// AckReq is a standalone cumulative acknowledgement, used by thin
// subscribers (gridctl watch) that want to advance the rendezvous
// watermark outside a notify exchange.
type AckReq struct {
	Topic ids.ID
	Sub   transport.Addr
	Epoch int
	UpTo  int
}

// AckResp acknowledges an AckReq.
type AckResp struct{}

// ResolveReq asks any broker to resolve Topic's rendezvous address —
// the entry point for external clients that do not run an overlay.
type ResolveReq struct {
	Topic ids.ID
}

// ResolveResp names the rendezvous.
type ResolveResp struct {
	Addr transport.Addr
}

// Fixed broker periods and bounds.
const (
	// syncEvery is the subscriber-list anti-entropy period and deadAfter
	// the rendezvous-death threshold, both handed to the inner replica
	// manager.
	syncEvery = 2 * time.Second
	deadAfter = 5 * time.Second
	// flushEvery is the publisher-side coalescing window: transitions
	// published within it ride one PublishReq.
	flushEvery = 100 * time.Millisecond
	// redeliverEvery is the retry period for unacknowledged events,
	// unconfirmed subscriptions, and unflushed publishes.
	redeliverEvery = 2 * time.Second
	// redeliverMax bounds delivery attempts per event per subscriber
	// (and per publish batch); beyond it the event is abandoned.
	redeliverMax = 8
)

// Config parameterizes a Broker.
type Config struct {
	// Lookup resolves the rendezvous node for a topic key: the Chord
	// lookup in deployments, a scripted map in tests. Required.
	Lookup func(rt transport.Runtime, key ids.ID) (transport.Addr, error)
	// Ring and K configure subscriber-list replication over the
	// rendezvous's successor list. K == 0 (or a nil Ring) disables
	// replication: a dead rendezvous then drops its subscribers and
	// the application fallback carries the jobs.
	Ring replica.Ring
	K    int
	// Obs, when non-nil, receives broker counters and gauges.
	Obs *obs.Obs
}

// Stats is a snapshot of the broker's additive counters.
type Stats struct {
	Published   int64 // events accepted at this rendezvous
	Notified    int64 // events delivered in successful notify calls
	Redelivered int64 // events re-sent after a failed/partial attempt
	Abandoned   int64 // events dropped after redeliverMax attempts
	Delivered   int64 // fresh events handed to OnEvent here
	Duplicates  int64 // events discarded by receiver dedup
	Takeovers   int64 // topics adopted after a rendezvous death
}

type pendEvent struct {
	ev    Event
	tries int
}

// subState is the rendezvous's delivery cursor for one subscriber.
type subState struct {
	acked   int // cumulative: all seq <= acked confirmed received
	pending []pendEvent
}

// topicState is the rendezvous-side state for one topic this node
// serves. Only the subscriber list is replicated; sequence numbers
// and pending queues are ephemeral, fenced by the record epoch.
type topicState struct {
	epoch   int
	nextSeq int
	subs    map[transport.Addr]*subState
}

// outTopic is the publisher-side queue for one topic.
type outTopic struct {
	payloads [][]byte
	tries    int
	rdv      transport.Addr // cached rendezvous ("" = resolve again)
}

// dedupState deduplicates one (topic, epoch) stream: a contiguous
// watermark plus a sparse set for events received ahead of a gap.
type dedupState struct {
	upTo int
	seen map[int]bool
}

// inTopic is the subscriber-side state for one topic.
type inTopic struct {
	want   bool // true: subscribed; false: unsubscribe in flight
	synced bool // rendezvous confirmed the current want
	rdv    transport.Addr
	epochs map[int]*dedupState
}

// Broker runs the pub/sub protocol for one node, playing publisher,
// subscriber, and rendezvous as traffic demands.
type Broker struct {
	host transport.Host
	cfg  Config
	mgr  *replica.Manager // subscriber-list replication; nil when off

	mu      sync.Mutex
	topics  map[ids.ID]*topicState // rendezvous role
	out     map[ids.ID]*outTopic   // publisher role
	subs    map[ids.ID]*inTopic    // subscriber role
	onEvent func(rt transport.Runtime, topic ids.ID, payload []byte)
	started bool
	kicking bool
	stats   Stats

	// Instruments (nil-safe when cfg.Obs is nil).
	mPublished *obs.Counter
	mNotified  *obs.Counter
	mRedeliver *obs.Counter
	mAbandoned *obs.Counter
	mDelivered *obs.Counter
	mDup       *obs.Counter
	mTakeover  *obs.Counter
}

// New creates a broker bound to host and registers its RPC handlers.
// Call Start to launch the periodic retry loop.
func New(host transport.Host, cfg Config) *Broker {
	b := &Broker{
		host:   host,
		cfg:    cfg,
		topics: make(map[ids.ID]*topicState),
		out:    make(map[ids.ID]*outTopic),
		subs:   make(map[ids.ID]*inTopic),
	}
	if b.cfg.K > 0 && b.cfg.Ring != nil {
		// The inner manager keeps its own Obs nil: its instrument
		// names ("replica_*") belong to the grid's owner-state
		// manager on the same registry.
		b.mgr = replica.New(host, b.cfg.Ring, replica.Config{
			K:            b.cfg.K,
			PushEvery:    syncEvery,
			ProbeEvery:   syncEvery,
			DeadAfter:    deadAfter,
			MethodPrefix: ReplicaPrefix,
			OnOwn:        b.onOwn,
			OnFenced:     b.onFenced,
		})
	}
	if reg := b.cfg.Obs.Registry(); reg != nil {
		b.mPublished = reg.Counter("pubsub_published_total")
		b.mNotified = reg.Counter("pubsub_notifications_total")
		b.mRedeliver = reg.Counter("pubsub_redeliveries_total")
		b.mAbandoned = reg.Counter("pubsub_abandoned_total")
		b.mDelivered = reg.Counter("pubsub_delivered_total")
		b.mDup = reg.Counter("pubsub_duplicates_total")
		b.mTakeover = reg.Counter("pubsub_takeovers_total")
		reg.GaugeFunc("pubsub_topics", func() float64 {
			b.mu.Lock()
			defer b.mu.Unlock()
			return float64(len(b.topics))
		})
		reg.GaugeFunc("pubsub_subscriptions", func() float64 {
			b.mu.Lock()
			defer b.mu.Unlock()
			n := 0
			for _, ts := range b.topics {
				n += len(ts.subs)
			}
			return float64(n)
		})
	}
	host.Handle(MSubscribe, b.handleSubscribe)
	host.Handle(MUnsubscribe, b.handleUnsubscribe)
	host.Handle(MPublish, b.handlePublish)
	host.Handle(MNotify, b.handleNotify)
	host.Handle(MAck, b.handleAck)
	host.Handle(MResolve, b.handleResolve)
	return b
}

// SetOnEvent installs (or replaces) the callback that receives each
// fresh (deduplicated) event delivered to this node's subscriptions,
// outside the broker lock. grid.NewNode calls it on the broker it is
// handed in its Config.
func (b *Broker) SetOnEvent(fn func(rt transport.Runtime, topic ids.ID, payload []byte)) {
	b.mu.Lock()
	b.onEvent = fn
	b.mu.Unlock()
}

// Start launches the periodic retry loop (and the subscriber-list
// replication loops when configured).
func (b *Broker) Start() {
	b.mu.Lock()
	if b.started {
		b.mu.Unlock()
		return
	}
	b.started = true
	b.mu.Unlock()
	if b.mgr != nil {
		b.mgr.Start()
	}
	b.host.Go("pubsub.tick", func(rt transport.Runtime) {
		for {
			rt.Sleep(redeliverEvery)
			b.tick(rt)
		}
	})
}

// Kick schedules one near-immediate work round (publish flush,
// subscription sync, delivery), coalescing bursts: events enqueued
// within one flushEvery window ride the same RPCs.
func (b *Broker) Kick() {
	b.mu.Lock()
	if !b.started || b.kicking {
		b.mu.Unlock()
		return
	}
	b.kicking = true
	b.mu.Unlock()
	b.host.Go("pubsub.kick", func(rt transport.Runtime) {
		rt.Sleep(flushEvery)
		b.mu.Lock()
		b.kicking = false
		b.mu.Unlock()
		b.tick(rt)
	})
}

// Reset clears all broker soft state and marks the loops stopped, for
// a crash/restart cycle (the crash killed the loop procs; restart
// calls Reset then Start). Rendezvous topic state, queued publishes,
// and subscription intents are all lost, exactly as a process restart
// loses them: replicated subscriber lists come back via the inner
// manager's recovery, publishers re-enqueue on the next transition,
// and subscribers fall back to polling until they resubscribe.
// Cumulative stats survive, like the network's own counters.
func (b *Broker) Reset() {
	b.mu.Lock()
	b.topics = make(map[ids.ID]*topicState)
	b.out = make(map[ids.ID]*outTopic)
	b.subs = make(map[ids.ID]*inTopic)
	b.started = false
	b.kicking = false
	b.mu.Unlock()
	if b.mgr != nil {
		b.mgr.Reset()
	}
}

// RingChange is the overlay's ring-change hook: it kicks the
// subscriber-list replication (re-target, takeover) and schedules a
// work round so delivery resumes promptly after a handoff.
func (b *Broker) RingChange() {
	if b.mgr != nil {
		b.mgr.Kick()
	}
	b.Kick()
}

// Stats returns a snapshot of the broker's counters.
func (b *Broker) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}

// Publish enqueues one event payload for topic. It never blocks and
// performs no I/O: a broker activity resolves the rendezvous and
// ships the batch within flushEvery.
func (b *Broker) Publish(topic ids.ID, payload []byte) {
	b.mu.Lock()
	ot := b.out[topic]
	if ot == nil {
		ot = &outTopic{}
		b.out[topic] = ot
	}
	ot.payloads = append(ot.payloads, payload)
	ot.tries = 0
	b.mu.Unlock()
	b.Kick()
}

// Subscribe registers this node's interest in topic. Idempotent;
// never blocks. Confirmation (and retries on failure) happen on
// broker activities.
func (b *Broker) Subscribe(topic ids.ID) {
	b.mu.Lock()
	st := b.subs[topic]
	if st == nil {
		st = &inTopic{epochs: make(map[int]*dedupState)}
		b.subs[topic] = st
	}
	if st.want && st.synced {
		b.mu.Unlock()
		return
	}
	st.want = true
	st.synced = false
	b.mu.Unlock()
	b.Kick()
}

// Unsubscribe withdraws this node's interest in topic; never blocks.
func (b *Broker) Unsubscribe(topic ids.ID) {
	b.mu.Lock()
	st := b.subs[topic]
	if st == nil {
		b.mu.Unlock()
		return
	}
	st.want = false
	st.synced = false
	b.mu.Unlock()
	b.Kick()
}

// tick performs one work round: flush queued publishes, sync
// subscription intents, deliver and redeliver pending events.
func (b *Broker) tick(rt transport.Runtime) {
	b.flushPublishes(rt)
	b.syncSubscriptions(rt)
	b.deliverPending(rt)
}

// resolve returns the rendezvous for topic, preferring cached (the
// caller passes it) and falling back to a fresh lookup.
func (b *Broker) resolve(rt transport.Runtime, topic ids.ID, cached transport.Addr) (transport.Addr, error) {
	if cached != "" {
		return cached, nil
	}
	return b.cfg.Lookup(rt, topic)
}

func sortedIDs[T any](m map[ids.ID]T) []ids.ID {
	keys := make([]ids.ID, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })
	return keys
}

func sortedAddrs[T any](m map[transport.Addr]T) []transport.Addr {
	addrs := make([]transport.Addr, 0, len(m))
	for a := range m {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	return addrs
}

// flushPublishes drains the publisher queues, one PublishReq per
// topic. Failed batches re-queue (ahead of anything published since)
// and retry next round with a fresh lookup, up to redeliverMax.
func (b *Broker) flushPublishes(rt transport.Runtime) {
	self := b.host.Addr()
	b.mu.Lock()
	topics := sortedIDs(b.out)
	b.mu.Unlock()
	for _, topic := range topics {
		b.mu.Lock()
		ot := b.out[topic]
		if ot == nil || len(ot.payloads) == 0 {
			delete(b.out, topic)
			b.mu.Unlock()
			continue
		}
		batch := ot.payloads
		ot.payloads = nil
		tries, cached := ot.tries, ot.rdv
		b.mu.Unlock()

		rdv, err := b.resolve(rt, topic, cached)
		if err == nil {
			_, err = rt.Call(rdv, MPublish, PublishReq{Topic: topic, From: self, Payloads: batch})
		}
		b.mu.Lock()
		ot = b.out[topic]
		if ot == nil { // Unreachable today, but harmless to guard.
			ot = &outTopic{}
			b.out[topic] = ot
		}
		if err == nil {
			ot.rdv = rdv
			ot.tries = 0
			if len(ot.payloads) == 0 {
				delete(b.out, topic)
			}
		} else if tries+1 >= redeliverMax {
			b.stats.Abandoned += int64(len(batch))
			b.mAbandoned.Add(int64(len(batch)))
			ot.rdv = ""
			if len(ot.payloads) == 0 {
				delete(b.out, topic)
			}
		} else {
			// Re-queue ahead of newer payloads so arrival order at
			// the rendezvous matches publish order.
			ot.payloads = append(batch, ot.payloads...)
			ot.tries = tries + 1
			ot.rdv = "" // the rendezvous may have moved; look up again
		}
		b.mu.Unlock()
	}
}

// syncSubscriptions pushes unconfirmed subscribe/unsubscribe intents
// to each topic's rendezvous. Subscribes retry forever (the periodic
// tick); completed unsubscribes drop the local state.
func (b *Broker) syncSubscriptions(rt transport.Runtime) {
	self := b.host.Addr()
	b.mu.Lock()
	topics := sortedIDs(b.subs)
	b.mu.Unlock()
	for _, topic := range topics {
		b.mu.Lock()
		st := b.subs[topic]
		if st == nil || st.synced {
			b.mu.Unlock()
			continue
		}
		want, cached := st.want, st.rdv
		b.mu.Unlock()

		rdv, err := b.resolve(rt, topic, cached)
		if err == nil {
			if want {
				_, err = rt.Call(rdv, MSubscribe, SubscribeReq{Topic: topic, Sub: self})
			} else {
				_, err = rt.Call(rdv, MUnsubscribe, UnsubscribeReq{Topic: topic, Sub: self})
			}
		}
		b.mu.Lock()
		if st = b.subs[topic]; st != nil && st.want == want {
			if err == nil {
				st.synced = true
				st.rdv = rdv
				if !want {
					delete(b.subs, topic)
				}
			} else {
				st.rdv = ""
			}
		}
		b.mu.Unlock()
	}
}

// deliverPending sends every subscriber its outstanding events, one
// NotifyReq per (topic, subscriber). Acknowledged events drop;
// events that outlive redeliverMax attempts are abandoned.
func (b *Broker) deliverPending(rt transport.Runtime) {
	self := b.host.Addr()
	b.mu.Lock()
	topics := sortedIDs(b.topics)
	b.mu.Unlock()
	for _, topic := range topics {
		b.mu.Lock()
		ts := b.topics[topic]
		if ts == nil {
			b.mu.Unlock()
			continue
		}
		epoch := ts.epoch
		subAddrs := sortedAddrs(ts.subs)
		b.mu.Unlock()
		for _, sub := range subAddrs {
			b.mu.Lock()
			ts = b.topics[topic]
			if ts == nil || ts.epoch != epoch {
				b.mu.Unlock()
				break
			}
			ss := ts.subs[sub]
			if ss == nil || len(ss.pending) == 0 {
				b.mu.Unlock()
				continue
			}
			events := make([]Event, len(ss.pending))
			redelivered := 0
			for i, pe := range ss.pending {
				events[i] = pe.ev
				if pe.tries > 0 {
					redelivered++
				}
			}
			b.mu.Unlock()

			raw, err := rt.Call(sub, MNotify, NotifyReq{Topic: topic, Epoch: epoch, From: self, Events: events})

			b.mu.Lock()
			if err == nil {
				// Even if the subscriber left on this event and overtook its ack.
				b.stats.Notified += int64(len(events))
				b.stats.Redelivered += int64(redelivered)
				b.mNotified.Add(int64(len(events)))
				b.mRedeliver.Add(int64(redelivered))
			}
			ts = b.topics[topic]
			if ts == nil || ts.epoch != epoch {
				b.mu.Unlock()
				break
			}
			if ss = ts.subs[sub]; ss == nil {
				b.mu.Unlock()
				continue
			}
			if err == nil {
				ack := raw.(NotifyResp).AckUpTo
				if ack > ss.acked {
					ss.acked = ack
				}
				kept := ss.pending[:0]
				for _, pe := range ss.pending {
					if pe.ev.Seq > ss.acked {
						pe.tries++
						kept = append(kept, pe)
					}
				}
				ss.pending = kept
			} else {
				sent := make(map[int]bool, len(events))
				for _, ev := range events {
					sent[ev.Seq] = true
				}
				kept := ss.pending[:0]
				dropped := 0
				for _, pe := range ss.pending {
					if sent[pe.ev.Seq] {
						pe.tries++
					}
					if pe.tries >= redeliverMax {
						dropped++
						continue
					}
					kept = append(kept, pe)
				}
				ss.pending = kept
				b.stats.Abandoned += int64(dropped)
				b.mAbandoned.Add(int64(dropped))
			}
			b.mu.Unlock()
		}
	}
}

// servingElsewhere reports whether the replicated record for topic
// names a different live owner — the request reached a stale or
// merely-replica node and the caller should look the rendezvous up
// again.
func (b *Broker) servingElsewhere(topic ids.ID) bool {
	if b.mgr == nil {
		return false
	}
	st := b.mgr.Status(topic)
	return st.Known && !st.Deleted && st.Owner != b.host.Addr()
}

// ensureTopicLocked returns (creating if needed) the rendezvous
// state for topic.
func (b *Broker) ensureTopicLocked(topic ids.ID) *topicState {
	ts := b.topics[topic]
	if ts == nil {
		ts = &topicState{nextSeq: 1, subs: make(map[transport.Addr]*subState)}
		b.topics[topic] = ts
	}
	return ts
}

// republish pushes the current subscriber list into the replica
// layer and refreshes the topic's delivery epoch from the record
// (Publish on a re-owned or tombstoned record opens a new epoch).
func (b *Broker) republish(topic ids.ID) {
	if b.mgr == nil {
		return
	}
	b.mu.Lock()
	ts := b.topics[topic]
	if ts == nil {
		b.mu.Unlock()
		return
	}
	addrs := sortedAddrs(ts.subs)
	b.mu.Unlock()
	b.mgr.Publish(topic, encodeSubs(addrs))
	epoch := b.mgr.Status(topic).Epoch
	b.mu.Lock()
	if ts = b.topics[topic]; ts != nil {
		ts.epoch = epoch
	}
	b.mu.Unlock()
	b.mgr.Kick()
}

func (b *Broker) handleSubscribe(rt transport.Runtime, from transport.Addr, req any) (any, error) {
	r := req.(SubscribeReq)
	if b.servingElsewhere(r.Topic) {
		return nil, fmt.Errorf("pubsub: not the rendezvous for %s", r.Topic.Short())
	}
	b.mu.Lock()
	ts := b.ensureTopicLocked(r.Topic)
	_, known := ts.subs[r.Sub]
	if !known {
		ts.subs[r.Sub] = &subState{}
	}
	epoch := ts.epoch
	b.mu.Unlock()
	if !known {
		b.republish(r.Topic)
	}
	return SubscribeResp{Epoch: epoch}, nil
}

func (b *Broker) handleUnsubscribe(rt transport.Runtime, from transport.Addr, req any) (any, error) {
	r := req.(UnsubscribeReq)
	b.mu.Lock()
	ts := b.topics[r.Topic]
	if ts == nil {
		b.mu.Unlock()
		return UnsubscribeResp{}, nil
	}
	if _, known := ts.subs[r.Sub]; !known {
		b.mu.Unlock()
		return UnsubscribeResp{}, nil
	}
	delete(ts.subs, r.Sub)
	empty := len(ts.subs) == 0
	if empty {
		delete(b.topics, r.Topic)
	}
	b.mu.Unlock()
	if empty {
		if b.mgr != nil {
			b.mgr.Delete(rt.Now(), r.Topic)
		}
	} else {
		b.republish(r.Topic)
	}
	return UnsubscribeResp{}, nil
}

func (b *Broker) handlePublish(rt transport.Runtime, from transport.Addr, req any) (any, error) {
	r := req.(PublishReq)
	if b.servingElsewhere(r.Topic) {
		return nil, fmt.Errorf("pubsub: not the rendezvous for %s", r.Topic.Short())
	}
	b.mu.Lock()
	ts := b.ensureTopicLocked(r.Topic)
	last := 0
	for _, p := range r.Payloads {
		ev := Event{Seq: ts.nextSeq, Payload: p}
		ts.nextSeq++
		last = ev.Seq
		for _, ss := range ts.subs {
			ss.pending = append(ss.pending, pendEvent{ev: ev})
		}
	}
	b.stats.Published += int64(len(r.Payloads))
	b.mPublished.Add(int64(len(r.Payloads)))
	if len(ts.subs) == 0 {
		// No subscribers: the events have nowhere to go and the bare
		// state would leak (every publish to an unsubscribed topic
		// would pin a topicState forever). Drop it; sequence numbering
		// restarts if a subscriber ever arrives, which is safe because
		// receivers scope dedup state to their own live subscriptions.
		delete(b.topics, r.Topic)
	}
	b.mu.Unlock()
	b.Kick()
	return PublishResp{Seq: last}, nil
}

func (b *Broker) handleNotify(rt transport.Runtime, from transport.Addr, req any) (any, error) {
	r := req.(NotifyReq)
	b.mu.Lock()
	st := b.subs[r.Topic]
	if st == nil || !st.want {
		// Not (or no longer) interested: acknowledge everything so
		// the rendezvous stops redelivering.
		b.mu.Unlock()
		ack := 0
		for _, ev := range r.Events {
			if ev.Seq > ack {
				ack = ev.Seq
			}
		}
		return NotifyResp{AckUpTo: ack}, nil
	}
	d := st.epochs[r.Epoch]
	if d == nil {
		d = &dedupState{seen: make(map[int]bool)}
		st.epochs[r.Epoch] = d
		// Keep the dedup window bounded across rendezvous handoffs:
		// only the latest few epochs stay resident.
		for len(st.epochs) > 4 {
			low := r.Epoch
			for e := range st.epochs {
				if e < low {
					low = e
				}
			}
			delete(st.epochs, low)
		}
	}
	fresh := make([]Event, 0, len(r.Events))
	for _, ev := range r.Events {
		if ev.Seq <= d.upTo || d.seen[ev.Seq] {
			b.stats.Duplicates++
			b.mDup.Inc()
			continue
		}
		d.seen[ev.Seq] = true
		fresh = append(fresh, ev)
	}
	for d.seen[d.upTo+1] {
		delete(d.seen, d.upTo+1)
		d.upTo++
	}
	sort.Slice(fresh, func(i, j int) bool { return fresh[i].Seq < fresh[j].Seq })
	b.stats.Delivered += int64(len(fresh))
	b.mDelivered.Add(int64(len(fresh)))
	ack := d.upTo
	cb := b.onEvent
	b.mu.Unlock()
	if cb != nil {
		for _, ev := range fresh {
			cb(rt, r.Topic, ev.Payload)
		}
	}
	return NotifyResp{AckUpTo: ack}, nil
}

func (b *Broker) handleAck(rt transport.Runtime, from transport.Addr, req any) (any, error) {
	r := req.(AckReq)
	b.mu.Lock()
	if ts := b.topics[r.Topic]; ts != nil && ts.epoch == r.Epoch {
		if ss := ts.subs[r.Sub]; ss != nil {
			if r.UpTo > ss.acked {
				ss.acked = r.UpTo
			}
			kept := ss.pending[:0]
			for _, pe := range ss.pending {
				if pe.ev.Seq > ss.acked {
					kept = append(kept, pe)
				}
			}
			ss.pending = kept
		}
	}
	b.mu.Unlock()
	return AckResp{}, nil
}

func (b *Broker) handleResolve(rt transport.Runtime, from transport.Addr, req any) (any, error) {
	r := req.(ResolveReq)
	addr, err := b.cfg.Lookup(rt, r.Topic)
	if err != nil {
		return nil, err
	}
	return ResolveResp{Addr: addr}, nil
}

// onOwn fires when the replica layer hands this node a subscriber
// list: promotion after a rendezvous death, or a replica restoring
// the record after this node restarted. The topic resumes here under
// the record's (new) epoch with sequence numbers starting over.
func (b *Broker) onOwn(rt transport.Runtime, rec replica.Record, promoted bool) {
	if rec.Deleted {
		b.mu.Lock()
		delete(b.topics, rec.Key)
		b.mu.Unlock()
		return
	}
	addrs := decodeSubs(rec.Data)
	b.mu.Lock()
	ts := b.ensureTopicLocked(rec.Key)
	ts.epoch = rec.Epoch
	for _, a := range addrs {
		if ts.subs[a] == nil {
			ts.subs[a] = &subState{}
		}
	}
	if promoted {
		b.stats.Takeovers++
		b.mTakeover.Inc()
	}
	b.mu.Unlock()
	b.Kick()
}

// onFenced fires when a newer record owned elsewhere displaces one
// this node was serving: a stale rendezvous stands down.
func (b *Broker) onFenced(rt transport.Runtime, rec replica.Record) {
	b.mu.Lock()
	delete(b.topics, rec.Key)
	b.mu.Unlock()
}

func encodeSubs(addrs []transport.Addr) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(addrs); err != nil {
		panic(fmt.Sprintf("pubsub: encode subscribers: %v", err))
	}
	return buf.Bytes()
}

func decodeSubs(data []byte) []transport.Addr {
	var addrs []transport.Addr
	if len(data) == 0 {
		return nil
	}
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&addrs); err != nil {
		return nil
	}
	return addrs
}
