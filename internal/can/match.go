package can

import (
	"fmt"
	"sort"

	"repro/internal/resource"
	"repro/internal/transport"
)

// FindRunNode performs CAN-based matchmaking starting at this node,
// which is assumed to be the owner of the job's insertion point
// (Section 3.2 of the paper):
//
//  1. With push enabled (the improved variant), the job is first pushed
//     toward under-loaded upper regions of the space while this owner
//     is overloaded relative to its directional load estimates.
//  2. The (final) owner builds the candidate set: itself plus neighbors
//     at least as capable in every dimension and more capable in at
//     least one, keeping only candidates that satisfy the job's
//     constraints, and picks the least loaded.
//  3. If the neighborhood has no satisfying candidate, a distributed
//     depth-first search explores the feasible orthant (zones at or
//     above the requirement coordinates in every constrained
//     dimension), bounded by a MatchTTL visit budget.
func (n *Node) FindRunNode(rt transport.Runtime, cons resource.Constraints, exclude []transport.Addr, push bool) (Ref, MatchStats, error) {
	resp := n.match(rt, MatchReq{
		Cons:    cons,
		Exclude: exclude,
		TTL:     n.cfg.MatchTTL,
		PushTTL: pushTTL,
		Push:    push,
	})
	stats := MatchStats{Hops: resp.Hops, Pushes: resp.Pushes, Visits: 1 + len(resp.Visited)}
	n.mMatches.Inc()
	n.mMatchHops.Observe(float64(stats.Hops))
	n.mMatchPushes.Observe(float64(stats.Pushes))
	n.mMatchVisits.Observe(float64(stats.Visits))
	if !resp.Found {
		n.mMatchFails.Inc()
		return Ref{}, stats, fmt.Errorf("%w: %s", ErrNoCandidate, cons)
	}
	return resp.Run, stats, nil
}

// MatchStats quantifies one matchmaking operation.
type MatchStats struct {
	Hops   int // overlay messages used by matchmaking
	Pushes int // load-based push steps taken
	Visits int // nodes examined by the feasible-region search
}

// match runs the owner-side algorithm at this node, forwarding over
// the overlay when pushing or when the local neighborhood cannot
// satisfy the job.
func (n *Node) match(rt transport.Runtime, req MatchReq) MatchResp {
	// Phase 1: load-based pushing (improved variant only).
	if req.Push && req.PushTTL > 0 {
		next, probes, ok := n.pushTarget(rt, req)
		if ok {
			fwd := req
			fwd.PushTTL--
			raw, err := rt.Call(next.Addr, MMatch, fwd)
			if err == nil {
				resp := raw.(MatchResp)
				resp.Hops += probes + 1
				resp.Pushes++
				return resp
			}
			// Push target unreachable: fall through to local matching.
		}
	}

	// Phase 2: candidate selection in the neighborhood.
	if cand, probes, ok := n.bestCandidate(rt, req); ok {
		return MatchResp{Run: cand.Ref, RunOS: cand.OS, Load: cand.Load, Hops: probes, Found: true, Visited: req.Visited}
	}

	// Phase 3: distributed depth-first search of the feasible orthant
	// — the region of the space at or above the job's requirement
	// coordinates in every constrained dimension, where any satisfying
	// node must live. The visit budget (TTL) and the shared visited set
	// bound the cost.
	// Rather than returning the first satisfying neighborhood — which
	// would funnel every starved-region job through the same border
	// nodes — the search keeps going until it has seen a few independent
	// candidates (the CAN analogue of the RN-Tree's extended search) and
	// returns the least loaded.
	const wantCandidates = 3
	visited := appendAddr(req.Visited, n.host.Addr())
	best := MatchResp{}
	founds := 0
	hops := 0
	for _, next := range n.orthantNeighbors(req) {
		remaining := req.TTL - (len(visited) - len(req.Visited))
		if remaining <= 0 || founds >= wantCandidates {
			break
		}
		if excluded(visited, next.Addr) || excluded(req.Exclude, next.Addr) {
			continue
		}
		fwd := req
		fwd.Push = false // pushing only happens before matching
		fwd.TTL = remaining
		fwd.Visited = visited
		raw, err := rt.Call(next.Addr, MMatch, fwd)
		hops++
		if err != nil {
			visited = appendAddr(visited, next.Addr) // unreachable counts as seen
			continue
		}
		sub := raw.(MatchResp)
		if len(sub.Visited) > len(visited) {
			visited = sub.Visited
		} else {
			visited = appendAddr(visited, next.Addr)
		}
		hops += sub.Hops
		if sub.Found {
			founds++
			if !best.Found || sub.Load < best.Load {
				best = sub
			}
		}
	}
	best.Hops = hops
	best.Visited = visited
	return best
}

// orthantNeighbors returns live neighbors whose zones intersect the
// job's feasible orthant, most promising (smallest capability deficit)
// first.
func (n *Node) orthantNeighbors(req MatchReq) []Ref {
	norm := resource.DefaultSpace.Normalize(req.Cons.Effective())
	n.mu.Lock()
	defer n.mu.Unlock()
	type scored struct {
		ref Ref
		d   float64
	}
	var out []scored
	for _, addr := range n.sortedNeighborAddrsLocked() {
		nb := n.neighbors[addr]
		if nb.dead != 0 {
			continue
		}
		eligible := false
		for _, z := range nb.info.Zones {
			inOrthant := true
			for t, m := range req.Cons.Mask {
				if m && z.Hi[t] <= norm[t] {
					inOrthant = false
					break
				}
			}
			if inOrthant {
				eligible = true
				break
			}
		}
		if !eligible {
			continue
		}
		out = append(out, scored{nb.info.Ref, deficit(req.Cons, nb.info.Caps, nb.info.OS)})
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].d != out[j].d {
			return out[i].d < out[j].d
		}
		return out[i].ref.Addr < out[j].ref.Addr
	})
	refs := make([]Ref, len(out))
	for i, s := range out {
		refs[i] = s.ref
	}
	return refs
}

func appendAddr(list []transport.Addr, a transport.Addr) []transport.Addr {
	out := make([]transport.Addr, 0, len(list)+1)
	out = append(out, list...)
	return append(out, a)
}

// pushTarget decides whether to push an incoming job upward and where.
// The owner must be loaded beyond the threshold; the directional
// gossip estimates nominate the most promising dimension, but the final
// decision probes the above-neighbors' live queue lengths (gossip
// snapshots go stale between exchanges). It returns the probe count for
// cost accounting.
func (n *Node) pushTarget(rt transport.Runtime, req MatchReq) (Ref, int, bool) {
	n.mu.Lock()
	own := n.loadFn()
	if own < pushThreshold {
		n.mu.Unlock()
		return Ref{}, 0, false
	}
	// Pushing along a capability dimension moves the job to more capable
	// regions; pushing along the virtual dimension spreads load across
	// the stack of similarly-capable nodes. Neither can violate the
	// job's constraints (coordinates only increase).
	seen := map[transport.Addr]bool{}
	var ups []Info
	for d := 0; d < Dims; d++ {
		for _, up := range n.aboveNeighborsLocked(d) {
			if !seen[up.Ref.Addr] && !excluded(req.Exclude, up.Ref.Addr) {
				seen[up.Ref.Addr] = true
				ups = append(ups, up)
			}
		}
	}
	n.mu.Unlock()
	const maxProbes = 4
	if len(ups) > maxProbes {
		ups = ups[:maxProbes]
	}
	probes := 0
	best := Ref{}
	bestLoad := own // only push when strictly lighter
	for _, up := range ups {
		load, err := n.probeLoad(rt, up.Ref.Addr)
		probes++
		if err != nil {
			continue
		}
		if load < bestLoad {
			bestLoad, best = load, up.Ref
		}
	}
	return best, probes, !best.IsZero()
}

type candidate struct {
	Ref  Ref
	OS   string
	Load int
}

// bestCandidate picks the least-loaded satisfying node among this node
// and its capable neighbors, probing live queue lengths.
//
// The candidate rule relaxes the paper's "more capable in at least one
// dimension" to "at least as capable in every dimension": with the
// virtual dimension, clustered populations surround an owner with
// identical-capability neighbors, and excluding them recreates the very
// clustering pathology the virtual dimension exists to break (see
// DESIGN.md).
func (n *Node) bestCandidate(rt transport.Runtime, req MatchReq) (candidate, int, bool) {
	n.mu.Lock()
	var cands []candidate
	selfOK := !excluded(req.Exclude, n.host.Addr()) && req.Cons.SatisfiedBy(n.caps, n.os)
	selfLoad := n.loadFn()
	for _, addr := range n.sortedNeighborAddrsLocked() {
		nb := n.neighbors[addr]
		if nb.dead != 0 || excluded(req.Exclude, addr) {
			continue
		}
		if !nb.info.Caps.Dominates(n.caps) {
			continue
		}
		if !req.Cons.SatisfiedBy(nb.info.Caps, nb.info.OS) {
			continue
		}
		cands = append(cands, candidate{Ref: nb.info.Ref, OS: nb.info.OS, Load: nb.info.Load})
	}
	n.mu.Unlock()

	// Probe the most promising neighbors (by gossiped load) for their
	// live queue lengths; cap probes to keep matchmaking cheap.
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].Load < cands[j].Load })
	const maxProbes = 6
	if len(cands) > maxProbes {
		cands = cands[:maxProbes]
	}
	probes := 0
	for i := range cands {
		load, err := n.probeLoad(rt, cands[i].Ref.Addr)
		probes++
		if err != nil {
			cands[i].Load = int(^uint(0) >> 1) // unreachable: never pick
			continue
		}
		cands[i].Load = load
	}
	if selfOK {
		cands = append(cands, candidate{Ref: n.ref, OS: n.os, Load: selfLoad})
	}
	ok := false
	var best candidate
	for _, c := range cands {
		if c.Load == int(^uint(0)>>1) {
			continue
		}
		if !ok || c.Load < best.Load || (c.Load == best.Load && c.Ref.Addr < best.Ref.Addr) {
			best, ok = c, true
		}
	}
	return best, probes, ok
}

// probeLoad fetches a node's live queue length.
func (n *Node) probeLoad(rt transport.Runtime, addr transport.Addr) (int, error) {
	if addr == n.host.Addr() {
		n.mu.Lock()
		defer n.mu.Unlock()
		return n.loadFn(), nil
	}
	raw, err := rt.Call(addr, MLoad, LoadReq{})
	if err != nil {
		return 0, err
	}
	return raw.(LoadResp).Load, nil
}

// deficit measures how far caps fall short of the constraints, in
// normalized coordinates; zero means fully satisfying. An OS mismatch
// adds a constant penalty so the walk prefers matching-OS regions.
func deficit(c resource.Constraints, caps resource.Vector, os string) float64 {
	nc := resource.DefaultSpace.Normalize(c.Effective())
	nv := resource.DefaultSpace.Normalize(caps)
	d := 0.0
	for i, m := range c.Mask {
		if m && nv[i] < nc[i] {
			d += nc[i] - nv[i]
		}
	}
	if c.OS != "" && c.OS != os {
		d += 1.0
	}
	return d
}

func excluded(list []transport.Addr, a transport.Addr) bool {
	for _, x := range list {
		if x == a {
			return true
		}
	}
	return false
}

func (n *Node) handleMatch(rt transport.Runtime, from transport.Addr, req any) (any, error) {
	return n.match(rt, req.(MatchReq)), nil
}

func (n *Node) handleLoad(rt transport.Runtime, from transport.Addr, req any) (any, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return LoadResp{Load: n.loadFn()}, nil
}
