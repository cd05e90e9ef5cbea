package match

import (
	"fmt"
	"sort"

	"repro/internal/chord"
	"repro/internal/grid"
	"repro/internal/resource"
	"repro/internal/transport"
)

// MProbe is the RPC method the TTL baseline uses to inspect a node.
const MProbe = "match.probe"

// ProbeReq asks a node whether it satisfies a job's constraints.
type ProbeReq struct{ Cons resource.Constraints }

// ProbeResp carries the answer plus the node's overlay neighbors, which
// the searching node uses to expand its frontier.
type ProbeResp struct {
	Satisfies bool
	Load      int
	Neighbors []transport.Addr
}

// RegisterProbe installs the probe handler on a host; the answer lists
// ring's routing neighbours.
func RegisterProbe(host transport.Host, caps resource.Vector, os string, load func() int, ring *chord.Node) {
	host.Handle(MProbe, func(rt transport.Runtime, from transport.Addr, req any) (any, error) {
		cons := req.(ProbeReq).Cons
		return ProbeResp{
			Satisfies: cons.SatisfiedBy(caps, os),
			Load:      load(),
			Neighbors: neighborAddrs(ring),
		}, nil
	})
}

func neighborAddrs(ring *chord.Node) []transport.Addr {
	var out []transport.Addr
	for _, r := range ring.Neighbors(nil) {
		out = append(out, r.Addr)
	}
	return out
}

// TTL is the related-work baseline ([Iamnitchi & Foster], [Butt et
// al.]): a TTL-bounded expanding search over overlay neighbors. The
// paper's criticism — "such mechanisms may fail to find a resource
// capable of running a given job, even though such a resource exists
// somewhere in the network" — is exactly what the tab5 experiment
// measures.
type TTL struct {
	// Ring is this node's Chord node: the search starts here and
	// expands along routing neighbours (chord.Node.Neighbors).
	Ring *chord.Node
	Caps resource.Vector
	OS   string
	Load func() int
	// Budget is the number of remote probes allowed (default 10).
	Budget int
}

// FindRunNodes implements grid.Matchmaker, one TTL search per job in
// job order.
func (m *TTL) FindRunNodes(rt transport.Runtime, reqs []grid.MatchReq) []grid.MatchResult {
	results := make([]grid.MatchResult, len(reqs))
	for i, r := range reqs {
		results[i].Run, results[i].Stats, results[i].Err = m.findRunNode(rt, r.Cons, r.Exclude)
	}
	return results
}

// findRunNode probes up to Budget nodes breadth-first from our
// neighbors and picks the least-loaded satisfying one.
func (m *TTL) findRunNode(rt transport.Runtime, cons resource.Constraints, exclude []transport.Addr) (transport.Addr, grid.MatchStats, error) {
	budget := m.Budget
	if budget <= 0 {
		budget = 10
	}
	stats := grid.MatchStats{}
	type hit struct {
		addr transport.Addr
		load int
	}
	var hits []hit
	self := m.Ring.Ref().Addr
	visited := map[transport.Addr]bool{self: true}
	if !addrIn(exclude, self) && cons.SatisfiedBy(m.Caps, m.OS) {
		hits = append(hits, hit{self, m.Load()})
	}
	stats.Visits++

	frontier := neighborAddrs(m.Ring)
	sort.Slice(frontier, func(i, j int) bool { return frontier[i] < frontier[j] })
	for len(frontier) > 0 && stats.Hops < budget {
		// Expand a uniformly random frontier node (the classic random
		// TTL walk with branching).
		i := rt.Rand().Intn(len(frontier))
		addr := frontier[i]
		frontier = append(frontier[:i], frontier[i+1:]...)
		if visited[addr] {
			continue
		}
		visited[addr] = true
		raw, err := rt.Call(addr, MProbe, ProbeReq{Cons: cons})
		stats.Hops++
		if err != nil {
			continue
		}
		stats.Visits++
		resp := raw.(ProbeResp)
		if resp.Satisfies && !addrIn(exclude, addr) {
			hits = append(hits, hit{addr, resp.Load})
		}
		for _, nb := range resp.Neighbors {
			if !visited[nb] {
				frontier = append(frontier, nb)
			}
		}
	}
	if len(hits) == 0 {
		return "", stats, fmt.Errorf("ttl: no satisfying node within %d probes for %s", budget, cons)
	}
	best := hits[0]
	for _, h := range hits[1:] {
		if h.load < best.load || (h.load == best.load && h.addr < best.addr) {
			best = h
		}
	}
	return best.addr, stats, nil
}
