package grid

import "repro/internal/transport"

// The grid.health RPC exposes the transport layer's per-peer circuit
// breaker state (nettransport, DESIGN.md §12) for operators: gridctl
// health prints it. Like stats/trace this is pull-only observability —
// the snapshot never feeds scheduling. Degradation decisions instead
// go through Config.PeerDown, a live predicate, so the two uses cannot
// drift apart.

// MHealth is the health method name registered on the host.
const MHealth = "grid.health"

// HealthReq asks a node for its per-peer breaker table.
type HealthReq struct{}

// HealthResp returns it.
type HealthResp struct {
	Node  transport.Addr
	Peers []transport.PeerHealth
}

func (n *Node) handleHealth(rt transport.Runtime, from transport.Addr, req any) (any, error) {
	var peers []transport.PeerHealth
	if n.cfg.Health != nil {
		peers = n.cfg.Health()
	}
	return HealthResp{Node: n.host.Addr(), Peers: peers}, nil
}

// peerDown reports whether the transport currently fast-fails calls to
// addr (open breaker). Always false without a Config.PeerDown hook —
// the simulator — so seeded runs are untouched by degradation logic.
func (n *Node) peerDown(addr transport.Addr) bool {
	return n.cfg.PeerDown != nil && addr != n.host.Addr() && n.cfg.PeerDown(addr)
}

// demoteDown stably partitions addrs so peers whose breaker is open
// sort last: probes hit likely-live candidates first, while the
// demoted ones are still reached (and fast-fail cheaply) as a last
// resort, so a peer that just recovered is never skipped outright.
func (n *Node) demoteDown(addrs []transport.Addr) []transport.Addr {
	if n.cfg.PeerDown == nil {
		return addrs
	}
	// Scan-first fast path: in the common all-breakers-closed case the
	// partition is the identity, so return the input unchanged instead
	// of rebuilding it — this runs on every monitor tick per due job.
	first := -1
	for i, a := range addrs {
		if n.peerDown(a) {
			first = i
			break
		}
	}
	if first < 0 {
		return addrs
	}
	alive := make([]transport.Addr, 0, len(addrs))
	alive = append(alive, addrs[:first]...)
	down := []transport.Addr{addrs[first]}
	for _, a := range addrs[first+1:] {
		if n.peerDown(a) {
			down = append(down, a)
		} else {
			alive = append(alive, a)
		}
	}
	return append(alive, down...)
}
