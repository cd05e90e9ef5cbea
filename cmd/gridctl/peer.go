package main

import (
	"time"

	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/nettransport"
	"repro/internal/peer"
	"repro/internal/resource"
	"repro/internal/rntree"
	"repro/internal/transport"
	"repro/internal/wire"
)

// clientPeer is gridctl joined to a grid as a full peer, which the
// chaos and flow harnesses need: submissions route through the overlay
// and the node's pending map feeds the resubmission monitor. Near-zero
// capabilities keep constrained work off this process. Every event the
// peer records lands in col, whose Check is the harnesses' verdict.
type clientPeer struct {
	host *nettransport.Host
	node *grid.Node
	col  *metrics.Collector
}

// joinClientPeer listens and launches a peer stack through bootstrap;
// it fails if the join or a readiness gate (peer.Launch) times out.
func joinClientPeer(bootstrap string, topts nettransport.Opts, patience time.Duration) (*clientPeer, error) {
	wire.RegisterAll()
	host, err := nettransport.ListenOpts("127.0.0.1:0", topts)
	if err != nil {
		return nil, err
	}
	p := &clientPeer{host: host, col: metrics.NewCollector()}
	stack := peer.New(host, resource.Vector{0.1, 1, 1}, "linux", p.col, peer.Config{
		Tree: rntree.Config{AggregateEvery: time.Second},
		Grid: grid.Config{HeartbeatEvery: time.Second, PeerDown: host.PeerDown, Health: host.Health},
	})
	p.node = stack.Grid
	if err := stack.LaunchWait(transport.Addr(bootstrap)); err != nil {
		host.Close()
		return nil, err
	}
	p.node.StartClientMonitor(patience)
	return p, nil
}
