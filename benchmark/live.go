package main

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/chord"
	"repro/internal/grid"
	"repro/internal/ids"
	"repro/internal/match"
	"repro/internal/nettransport"
	"repro/internal/obs"
	"repro/internal/resource"
	"repro/internal/rntree"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/workload"
)

// The live deployment is cmd/gridnode's wiring, in one process: a
// pooled TCP host per peer on loopback, Chord, an RN-Tree over it, and
// a grid node matched through the tree. Two things differ from
// gridnode, both so that a run is repeatable. Jobs execute through the
// grid's built-in sliced sleep and not through a sandbox, which the
// benchmark does not measure. And the periods below are fixed here:
// AggregateEvery and HeartbeatEvery are gridnode's values (the library
// defaults are 2 s); ParentRefreshEvery is the benchmark's own (library
// default 15 s) so that a parent computed before the ring settled is
// corrected within seconds, which bounds set-up time.
const (
	liveStabilizeEvery     = 500 * time.Millisecond
	liveFixFingersEvery    = 500 * time.Millisecond
	liveAggregateEvery     = time.Second
	liveParentRefreshEvery = 2 * time.Second
	liveHeartbeatEvery     = time.Second

	// clientPortOffset places the load generator's own host; fixed like
	// the peers' ports, so job GUIDs (a hash of client address and
	// sequence number) repeat across runs.
	clientPortOffset = 99
)

type peer struct {
	host *nettransport.Host
	ch   *chord.Node
	rn   *rntree.Node
	gn   *grid.Node
}

func (p *peer) addr() transport.Addr { return p.host.Addr() }

// liveGrid is one converged deployment.
type liveGrid struct {
	peers []*peer
	setup time.Duration // listen + join + convergence
}

func (g *liveGrid) addrs() []transport.Addr {
	out := make([]transport.Addr, len(g.peers))
	for i, p := range g.peers {
		out[i] = p.addr()
	}
	return out
}

// close stops every peer's host. The peers' periodic loops are not
// joinable (nettransport.Host.Close does not wait for Go activities);
// on a closed host they fail fast without touching the network and end
// with the process.
func (g *liveGrid) close() {
	for _, p := range g.peers {
		p.host.Close()
	}
}

// liveInstr selects what a deployment records. counts is attached to
// the transports only and costs a few atomic adds per RPC; it is on in
// every run because net_msgs_per_job is an end-to-end metric. layers,
// when true, also hands the sink to chord, rntree and grid (lookup and
// search counters, job tracer, event hub): that is the traced run.
type liveInstr struct {
	counts *obs.Obs
	layers bool
	rec    grid.Recorder
}

func (in liveInstr) layerObs() *obs.Obs {
	if in.layers {
		return in.counts
	}
	return nil
}

// buildLive binds the peers at portBase+i, joins them into one ring
// through peer 0, starts every layer, and returns once the ring and the
// tree are converged as seen from outside.
func buildLive(portBase int, nodes []workload.NodeSpec, in liveInstr) (*liveGrid, error) {
	wire.RegisterAll()
	began := time.Now()
	g := &liveGrid{}
	for i, spec := range nodes {
		host, err := nettransport.Listen(fmt.Sprintf("127.0.0.1:%d", portBase+i))
		if err != nil {
			g.close()
			return nil, err
		}
		if in.counts != nil {
			host.SetObs(in.counts)
		}
		lo := in.layerObs()
		ch := chord.New(host, chord.Config{
			StabilizeEvery:  liveStabilizeEvery,
			FixFingersEvery: liveFixFingersEvery,
			Obs:             lo,
		})
		rn := rntree.New(host, ch, spec.Caps, spec.OS, rntree.Config{
			AggregateEvery:     liveAggregateEvery,
			ParentRefreshEvery: liveParentRefreshEvery,
			Obs:                lo,
		})
		gn := grid.NewNode(host, spec.Caps, spec.OS,
			&match.ChordOverlay{Chord: ch, Walk: rn}, &match.RNTree{RN: rn}, in.rec,
			grid.Config{HeartbeatEvery: liveHeartbeatEvery, Obs: lo, PeerDown: host.PeerDown})
		rn.SetLoadFn(gn.QueueLen)
		g.peers = append(g.peers, &peer{host: host, ch: ch, rn: rn, gn: gn})
	}
	g.peers[0].ch.Create()
	boot := g.peers[0].addr()
	for _, p := range g.peers[1:] {
		p := p
		joined := make(chan error, 1)
		p.host.Go("join", func(rt transport.Runtime) {
			var err error
			for try := 0; try < 50; try++ {
				if err = p.ch.Join(rt, boot); err == nil {
					break
				}
				rt.Sleep(100 * time.Millisecond)
			}
			joined <- err
		})
		if err := <-joined; err != nil {
			g.close()
			return nil, fmt.Errorf("join %s: %w", p.addr(), err)
		}
	}
	// Chord first, the tree once the ring has closed. Started together
	// (as gridnode does), a peer computes its first parent on a ring that
	// is still forming, pushes a summary to the wrong parent, and that
	// stale child entry then takes ChildTTL (3 s) to expire: the same
	// final state, reached about three seconds later.
	for _, p := range g.peers {
		p.ch.Start()
	}
	if err := await(ringConverged, g.peers, 50*time.Millisecond); err != nil {
		g.close()
		return nil, err
	}
	for _, p := range g.peers {
		p.rn.Start()
		p.gn.Start()
	}
	if err := await(treeConverged, g.peers, 100*time.Millisecond); err != nil {
		g.close()
		return nil, err
	}
	g.setup = time.Since(began)
	return g, nil
}

const convergeLimit = 30 * time.Second

// await polls check until it has passed three times in a row.
func await(check func([]*peer) error, ps []*peer, every time.Duration) error {
	deadline := time.Now().Add(convergeLimit)
	var last error
	for held := 0; time.Now().Before(deadline); time.Sleep(every) {
		if last = check(ps); last != nil {
			held = 0
		} else if held++; held == 3 {
			return nil
		}
	}
	return fmt.Errorf("deployment did not converge in %s: %w", convergeLimit, last)
}

// treeConverged is the gate of the measured phase: the ring still
// closed, the tree in its final shape, and every peer able to find
// every other through it.
func treeConverged(ps []*peer) error {
	if err := ringConverged(ps); err != nil {
		return err
	}
	if err := treeShaped(ps); err != nil {
		return err
	}
	return allDiscoverable(ps)
}

// allDiscoverable checks that the tree's resource summaries have
// reached the root: from every peer, a search for a job that needs
// exactly another peer's capabilities finds a candidate. Summaries
// climb one level per AggregateEvery, and until they have, a search
// prunes the subtree that holds the only capable node, the match fails
// and the job waits out MatchRetryEvery (5 s).
func allDiscoverable(ps []*peer) error {
	for _, from := range ps {
		var err error
		onHost(from, func(rt transport.Runtime) {
			for _, target := range ps {
				caps := target.rn.Caps()
				need := resource.Unconstrained
				for t := resource.Type(0); t < resource.NumTypes; t++ {
					need = need.Require(t, caps[t])
				}
				if _, _, ferr := from.rn.FindCandidates(rt, need, 1); ferr != nil {
					err = fmt.Errorf("tree: %s cannot find a node as capable as %s: %w", from.addr(), target.addr(), ferr)
					return
				}
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// ringConverged checks the ring from outside, through public accessors
// only: following Successor from peer 0 visits every peer once and
// returns, and each peer's predecessor is the peer it was reached from.
func ringConverged(ps []*peer) error {
	n := len(ps)
	by := make(map[transport.Addr]*peer, n)
	for _, p := range ps {
		by[p.addr()] = p
	}
	cur := ps[0]
	seen := make(map[transport.Addr]bool, n)
	for i := 0; i < n; i++ {
		if seen[cur.addr()] {
			return fmt.Errorf("ring: %s reached twice after %d steps", cur.addr(), i)
		}
		seen[cur.addr()] = true
		next := by[cur.ch.Successor().Addr]
		if next == nil {
			return fmt.Errorf("ring: %s has no known successor", cur.addr())
		}
		if pred := next.ch.Predecessor().Addr; pred != cur.addr() {
			return fmt.Errorf("ring: %s has predecessor %q, want %s", next.addr(), pred, cur.addr())
		}
		cur = next
	}
	if cur != ps[0] {
		return errors.New("ring: does not close after N steps")
	}
	return nil
}

// treeShaped checks the tree from outside: every peer's parent is the
// one the RN-Tree's parent rule gives on the converged ring (so exactly
// one peer is the root and no later parent refresh changes the shape),
// every child is listed by its parent, and no peer but the root lists a
// child that is not its own. On the seed a launch measured before this
// holds can keep two peers as each other's parent, or as each other's
// stale child, for seconds; searches then ping-pong between them until
// the visit budget is spent, matches fail, and each failed job waits
// out MatchRetryEvery (5 s). The root is exempt from the last check
// because it never expires a child entry.
func treeShaped(ps []*peer) error {
	n := len(ps)
	want := ruleParents(ps)
	kids := make(map[*peer]map[transport.Addr]bool, n)
	for _, p := range ps {
		parent := want[p]
		if got := p.rn.Parent().Addr; parent == nil && got != "" || parent != nil && got != parent.addr() {
			return fmt.Errorf("tree: %s has parent %q, the parent rule gives %v", p.addr(), got, parent)
		}
		if parent != nil {
			if kids[parent] == nil {
				kids[parent] = map[transport.Addr]bool{}
			}
			kids[parent][p.addr()] = true
		}
	}
	for _, p := range ps {
		listed := map[transport.Addr]bool{}
		for _, c := range p.rn.Children() {
			listed[c] = true
			if !kids[p][c] && want[p] != nil {
				return fmt.Errorf("tree: %s still lists %s, which is not its child", p.addr(), c)
			}
		}
		for c := range kids[p] {
			if !listed[c] {
				return fmt.Errorf("tree: %s does not list its child %s yet", p.addr(), c)
			}
		}
	}
	return nil
}

// ruleParents applies the RN-Tree parent rule (package rntree's doc
// comment, and rntree.WarmStart) to the peers' ring identifiers: clear
// the lowest set bit of the node's 24-bit prefix, take the ring owner
// of the result, and keep climbing while that owner is the node itself.
// The root maps to nil.
func ruleParents(ps []*peer) map[*peer]*peer {
	const prefixBits = 24 // rntree.Config's default, which the deployment keeps
	sorted := append([]*peer(nil), ps...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ch.ID().Less(sorted[j].ch.ID()) })
	owner := func(key ids.ID) *peer {
		i := sort.Search(len(sorted), func(i int) bool { return !sorted[i].ch.ID().Less(key) })
		return sorted[i%len(sorted)]
	}
	out := make(map[*peer]*peer, len(ps))
	for _, p := range ps {
		prefix := p.ch.ID().Prefix(prefixBits)
		for {
			if prefix != 0 {
				prefix = ids.ClearLowestSetBit(prefix)
			}
			if o := owner(ids.FromPrefix(prefix, prefixBits)); o != p {
				out[p] = o
				break
			}
			if prefix == 0 {
				break
			}
		}
	}
	return out
}
