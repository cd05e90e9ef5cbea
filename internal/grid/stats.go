package grid

import (
	"time"

	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/transport"
)

// The grid.stats and grid.trace RPCs are the pull side of the
// observability layer: gridctl scrapes node statistics and walks job
// traces across nodes through them. Tracing itself is pull-based —
// nodes only buffer locally and never report anywhere — which is what
// keeps observability out of the protocol's scheduling.

// Stats/trace method names registered on the host.
const (
	MStats = "grid.stats"
	MTrace = "grid.trace"
)

// NodeStats is one node's self-reported state snapshot.
type NodeStats struct {
	Addr      transport.Addr
	Now       time.Duration // the node's local clock (process-relative)
	QueueLen  int           // run queue length incl. the running job
	Owned     int           // jobs currently owned
	Pending   int           // client-role submissions awaiting results
	Completed int64         // jobs finished as run node
	Executed  time.Duration // nominal work executed
	Samples   []obs.Sample  // flattened metrics registry, sorted by name
}

// RPC message types for stats and trace.
type (
	// StatsReq asks a node for its statistics snapshot.
	StatsReq struct{}
	// StatsResp returns the snapshot.
	StatsResp struct{ Stats NodeStats }
	// TraceReq asks a node for its local events of one job trace.
	TraceReq struct{ Trace ids.ID }
	// TraceResp returns the node's trace events plus the peer addresses
	// its context recorded — the frontier a cross-node reconstruction
	// (gridctl trace) walks next.
	TraceResp struct {
		Events []obs.TraceEvent
		Peers  []transport.Addr
	}
)

func (n *Node) handleStats(rt transport.Runtime, from transport.Addr, req any) (any, error) {
	n.mu.Lock()
	owned := len(n.owned)
	pending := 0
	for _, p := range n.pending {
		if !p.got {
			pending++
		}
	}
	completed := n.Completed
	executed := n.Executed
	n.mu.Unlock()
	return StatsResp{Stats: NodeStats{
		Addr:      n.host.Addr(),
		Now:       rt.Now(),
		QueueLen:  n.QueueLen(),
		Owned:     owned,
		Pending:   pending,
		Completed: completed,
		Executed:  executed,
		Samples:   n.cfg.Obs.Registry().Snapshot(),
	}}, nil
}

func (n *Node) handleTrace(rt transport.Runtime, from transport.Addr, req any) (any, error) {
	t := req.(TraceReq)
	evs, peers := n.om.tracer.Get(t.Trace)
	return TraceResp{Events: evs, Peers: peers}, nil
}
