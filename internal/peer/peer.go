// Package peer stands up the stack every peer runs (the paper's
// Fig. 1): Chord, the RN-Tree whose parent rule reads that ring, the
// grid layer on top. New is the one assembler of that stack, for live
// peers and simulated ones alike: experiments.Build calls it for every
// Chord-family node (Config.Match swaps in a baseline matchmaker) and
// converges the overlays by warm start instead of Launch, which brings
// a peer up ring-first on simhost and nettransport.
package peer

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/chord"
	"repro/internal/grid"
	"repro/internal/ids"
	"repro/internal/match"
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
	// Match, when set, builds the matchmaker over the peer's ring in
	// place of the RN-Tree's, and jobs route by plain Chord lookup with
	// no walk. The tree is built all the same, so every peer launches
	// alike, but nothing searches it.
	Match func(ring *chord.Node) grid.Matchmaker
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
	overlay := &match.ChordOverlay{Chord: p.Ring, Walk: p.Tree}
	p.Match = &match.RNTree{RN: p.Tree}
	if cfg.Match != nil {
		overlay.Walk = nil
		p.Match = cfg.Match(p.Ring)
	}
	gcfg := cfg.Grid
	if gcfg.Trust != nil {
		p.Match = &match.Trusted{Inner: p.Match, Table: gcfg.Trust}
	}
	gcfg.ReplicaRing = replica.ChordRing{Node: p.Ring} // idle at ReplicaK 0
	if cfg.Notify {
		// Topics rendezvous at the ring owner of their key; ReplicaK > 0
		// also replicates subscriber lists over that owner's successors.
		p.Broker = pubsub.New(host, pubsub.Config{
			Obs: gcfg.Obs, Ring: replica.ChordRing{Node: p.Ring}, K: gcfg.ReplicaK,
			Lookup: func(rt transport.Runtime, key ids.ID) (transport.Addr, error) {
				ref, _, err := p.Ring.Lookup(rt, key)
				return ref.Addr, err
			},
		})
		gcfg.Notify = p.Broker
	}
	p.Grid = grid.NewNode(host, caps, os, overlay, p.Match, rec, gcfg)
	p.Tree.SetLoadFn(p.Grid.QueueLen)
	p.Ring.SetRingChange(func() {
		// Owner-state replicas, then subscriber lists, re-aim at the new
		// successors without waiting out an anti-entropy period.
		p.Grid.ReplicaKick()
		if p.Broker != nil {
			p.Broker.RingChange()
		}
	})
	return p
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
