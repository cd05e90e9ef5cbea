// Package peer stands up the stack every peer runs (the paper's
// Fig. 1): Chord, the RN-Tree whose parent rule reads that ring, the
// grid layer on top. New wires it, Launch brings it up ring-first, on
// simhost and nettransport alike. experiments.Build is the other
// assembler, on purpose (six matchmakers, warm start, no joins); it
// shares NewBroker and RingHook so the two cannot drift.
package peer

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/chord"
	"repro/internal/grid"
	"repro/internal/ids"
	"repro/internal/match"
	"repro/internal/obs"
	"repro/internal/pubsub"
	"repro/internal/replica"
	"repro/internal/resource"
	"repro/internal/rntree"
	"repro/internal/transport"
)

// Config is the three layers' configs side by side. Grid.Trust puts
// the matchmaker inside match.Trusted, Grid.ReplicaK replicates owner
// state (and with Notify subscriber lists) over the ring's successors;
// New fills Grid.ReplicaRing and Grid.Notify itself.
type Config struct {
	Chord  chord.Config
	Tree   rntree.Config
	Grid   grid.Config
	Notify bool // a pub/sub broker whose topics rendezvous on the ring (DESIGN.md §13)
}

// Peer is one assembled stack. Broker is nil without Config.Notify.
type Peer struct {
	Host   transport.Host
	Ring   *chord.Node
	Tree   *rntree.Node
	Match  grid.Matchmaker
	Grid   *grid.Node
	Broker *pubsub.Broker
}

// New constructs and wires the stack on host. Nothing runs until Launch.
func New(host transport.Host, caps resource.Vector, os string, rec grid.Recorder, cfg Config) *Peer {
	p := &Peer{Host: host, Ring: chord.New(host, cfg.Chord)}
	p.Tree = rntree.New(host, p.Ring, caps, os, cfg.Tree)
	p.Match = &match.RNTree{RN: p.Tree}
	gcfg := cfg.Grid
	if gcfg.Trust != nil {
		p.Match = &match.Trusted{Inner: p.Match, Table: gcfg.Trust}
	}
	gcfg.ReplicaRing = replica.ChordRing{Node: p.Ring} // idle at ReplicaK 0
	if cfg.Notify {
		p.Broker = NewBroker(host, p.Ring, gcfg.ReplicaK, gcfg.Obs)
		gcfg.Notify = p.Broker
	}
	p.Grid = grid.NewNode(host, caps, os, &match.ChordOverlay{Chord: p.Ring, Walk: p.Tree}, p.Match, rec, gcfg)
	p.Tree.SetLoadFn(p.Grid.QueueLen)
	p.Ring.SetRingChange(RingHook(p.Grid, p.Broker))
	return p
}

// NewBroker builds a broker whose topics rendezvous at the ring owner
// of their key; replicaK > 0 also replicates subscriber lists over that
// owner's successors.
func NewBroker(host transport.Host, ring *chord.Node, replicaK int, o *obs.Obs) *pubsub.Broker {
	return pubsub.New(host, pubsub.Config{
		Obs: o, Ring: replica.ChordRing{Node: ring}, K: replicaK,
		Lookup: func(rt transport.Runtime, key ids.ID) (transport.Addr, error) {
			ref, _, err := ring.Lookup(rt, key)
			return ref.Addr, err
		},
	})
}

// RingHook is what a peer does when its ring neighbourhood changes:
// owner-state replicas, then subscriber lists (b, nil when off), re-aim
// at the new successors without waiting out an anti-entropy period.
func RingHook(gn *grid.Node, b *pubsub.Broker) func() {
	return func() {
		gn.ReplicaKick()
		if b != nil {
			b.RingChange()
		}
	}
}

// A bootstrap started in the same breath may not be listening yet; a
// ring closes and a tree attaches in a few of their maintenance rounds.
const (
	joinBound      = 10 * time.Second
	joinRetryEvery = 250 * time.Millisecond
	gateBound      = 30 * time.Second
)

// ErrNotReady is Launch's error when a readiness gate timed out.
var ErrNotReady = errors.New("peer not ready")

// Launch brings the peer up from inside one of its host's activities:
// create the ring (bootstrap "") or join it, start Chord, wait until
// the ring has closed around this node (chord.AwaitClosed), only then
// start the tree, the grid and the broker, and return once the tree
// has placed the node (rntree.AwaitAttached). A tree started on a
// half-formed ring computes its first parent wrong and takes a child
// TTL to recover. A creator is a whole grid of one, ready at once. A
// failed join returns its error with nothing started; a gate timeout
// returns ErrNotReady with every layer running, to serve anyway.
func (p *Peer) Launch(rt transport.Runtime, bootstrap transport.Addr) error {
	sole := bootstrap == ""
	if sole {
		p.Ring.Create()
	}
	for deadline := rt.Now() + joinBound; !sole; rt.Sleep(joinRetryEvery) { // joiners only
		err := p.Ring.Join(rt, bootstrap)
		if err == nil {
			break
		}
		if rt.Now() >= deadline {
			return err
		}
	}
	p.Ring.Start()
	closed := sole || p.Ring.AwaitClosed(rt, gateBound)
	p.Tree.Start()
	p.Grid.Start()
	if p.Broker != nil {
		p.Broker.Start()
	}
	if !closed {
		return fmt.Errorf("%w: ring did not close around %s within %s of joining via %s", ErrNotReady, p.Host.Addr(), gateBound, bootstrap)
	}
	if !sole && !p.Tree.AwaitAttached(rt, gateBound) {
		return fmt.Errorf("%w: ring closed but the tree gave %s no parent or child within %s", ErrNotReady, p.Host.Addr(), gateBound)
	}
	return nil
}

// LaunchWait runs Launch on a host activity and blocks the caller
// until it returns: live transports only, a simulation would not advance.
func (p *Peer) LaunchWait(bootstrap transport.Addr) error {
	done := make(chan error, 1)
	p.Host.Go("peer.launch", func(rt transport.Runtime) { done <- p.Launch(rt, bootstrap) })
	return <-done
}
