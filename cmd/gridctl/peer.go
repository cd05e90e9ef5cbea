package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/chord"
	"repro/internal/grid"
	"repro/internal/ids"
	"repro/internal/match"
	"repro/internal/nettransport"
	"repro/internal/resource"
	"repro/internal/rntree"
	"repro/internal/transport"
	"repro/internal/wire"
)

// clientPeer is gridctl joined to a grid as a full peer, which the
// chaos and flow harnesses need: submissions route through the overlay
// and the node's pending map feeds the resubmission monitor. Near-zero
// capabilities keep constrained work off this process.
type clientPeer struct {
	host *nettransport.Host
	node *grid.Node

	mu        sync.Mutex
	delivered map[ids.ID]int // result deliveries per job GUID
	resubmits int
}

// joinClientPeer listens, joins the ring through bootstrap, starts the
// overlay, grid node and client monitor, and returns once the peer is
// usable: its Chord successor is another node and the RN-Tree has
// either given it a parent or, if it is the root, a child. Joining
// and converging together are bounded by timeout.
func joinClientPeer(bootstrap string, topts nettransport.Opts, patience, timeout time.Duration) (*clientPeer, error) {
	wire.RegisterAll()
	host, err := nettransport.ListenOpts("127.0.0.1:0", topts)
	if err != nil {
		return nil, err
	}
	p := &clientPeer{host: host, delivered: map[ids.ID]int{}}
	caps := resource.Vector{0.1, 1, 1}
	ch := chord.New(host, chord.Config{
		StabilizeEvery:  500 * time.Millisecond,
		FixFingersEvery: 500 * time.Millisecond,
	})
	rn := rntree.New(host, ch, caps, "linux", rntree.Config{AggregateEvery: time.Second})
	rec := grid.RecorderFunc(func(ev grid.Event) {
		p.mu.Lock()
		switch ev.Kind {
		case grid.EvResultDelivered:
			p.delivered[ev.JobID]++
		case grid.EvResubmitted:
			p.resubmits++
		}
		p.mu.Unlock()
	})
	p.node = grid.NewNode(host, caps, "linux", &match.ChordOverlay{Chord: ch, Walk: rn}, &match.RNTree{RN: rn}, rec, grid.Config{
		HeartbeatEvery: time.Second,
		PeerDown:       host.PeerDown,
		Health:         gridctlHealth(host),
	})
	rn.SetLoadFn(p.node.QueueLen)

	deadline := time.Now().Add(timeout)
	joined := make(chan error, 1)
	host.Go("join", func(rt transport.Runtime) {
		for {
			jerr := ch.Join(rt, transport.Addr(bootstrap))
			if jerr == nil || !time.Now().Before(deadline) {
				joined <- jerr
				return
			}
			rt.Sleep(500 * time.Millisecond)
		}
	})
	if err := <-joined; err != nil {
		host.Close()
		return nil, fmt.Errorf("join via %s: %w", bootstrap, err)
	}
	ch.Start()
	rn.Start()
	p.node.Start()
	p.node.StartClientMonitor(patience)
	for ch.Successor().Addr == host.Addr() || (rn.Parent().IsZero() && len(rn.Children()) == 0) {
		if !time.Now().Before(deadline) {
			host.Close()
			return nil, fmt.Errorf("joined via %s but ring and tree did not converge within %s", bootstrap, timeout)
		}
		time.Sleep(50 * time.Millisecond)
	}
	return p, nil
}

// tally reports distinct jobs delivered, surplus deliveries and
// monitor resubmissions seen so far.
func (p *clientPeer) tally() (delivered, duplicates, resubmits int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.delivered {
		delivered++
		duplicates += c - 1
	}
	return delivered, duplicates, p.resubmits
}

// gridctlHealth adapts the transport breaker snapshot for grid.health,
// mirroring the gridnode adapter.
func gridctlHealth(host *nettransport.Host) func() []grid.PeerHealth {
	return func() []grid.PeerHealth {
		hs := host.Health()
		out := make([]grid.PeerHealth, len(hs))
		for i, e := range hs {
			out[i] = grid.PeerHealth{
				Peer:        e.Peer,
				State:       e.State,
				ConsecFails: e.ConsecFails,
				Failures:    e.Failures,
				Successes:   e.Successes,
				Opens:       e.Opens,
				RetryIn:     e.RetryIn,
			}
		}
		return out
	}
}
