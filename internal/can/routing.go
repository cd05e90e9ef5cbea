package can

import (
	"fmt"

	"repro/internal/transport"
)

// Route resolves the owner of target by iterative greedy routing from
// this node, returning the owner and the hop count.
func (n *Node) Route(rt transport.Runtime, target Point) (Ref, int, error) {
	owner, hops, err := n.routeFrom(rt, n.ref, target)
	if err == nil {
		n.mu.Lock()
		n.Routes++
		n.RouteHops += int64(hops)
		n.mu.Unlock()
		n.mRoutes.Inc()
		n.mRouteHops.Observe(float64(hops))
	} else {
		n.mRouteFails.Inc()
	}
	return owner, hops, err
}

// RouteVia starts the greedy route at a remote bootstrap node.
func (n *Node) RouteVia(rt transport.Runtime, start transport.Addr, target Point) (Ref, int, error) {
	return n.routeFrom(rt, Ref{Addr: start}, target)
}

func (n *Node) routeFrom(rt transport.Runtime, cur Ref, target Point) (Ref, int, error) {
	hops := 0
	failures := 0
	var visited []transport.Addr
	for hops < maxRouteHops {
		var resp StepResp
		if cur.Addr == n.host.Addr() {
			resp = n.step(StepReq{Target: target, Exclude: visited})
		} else {
			raw, err := rt.Call(cur.Addr, MStep, StepReq{Target: target, Exclude: visited})
			hops++
			if err != nil {
				failures++
				if failures > 3 {
					return Ref{}, hops, fmt.Errorf("%w: too many step failures (last: %v)", ErrRouteFailed, err)
				}
				visited = appendAddr(visited, cur.Addr)
				cur = n.ref // restart from our own (repaired) state
				continue
			}
			resp = raw.(StepResp)
		}
		if resp.Done {
			return resp.Owner, hops, nil
		}
		if resp.Next.IsZero() {
			return Ref{}, hops, fmt.Errorf("%w: no progress at %s toward %v", ErrRouteFailed, cur.Addr, target)
		}
		visited = appendAddr(visited, cur.Addr)
		cur = resp.Next
	}
	return Ref{}, hops, fmt.Errorf("%w: exceeded %d hops", ErrRouteFailed, maxRouteHops)
}

// step computes one routing step: done if we own the target, otherwise
// the unvisited neighbor whose zones are closest to it. Distance may
// plateau or even grow — combined with the caller's visited list this
// is best-first search, which routes around coverage holes that pure
// greedy descent cannot (e.g. mid-takeover after failures).
func (n *Node) step(req StepReq) StepResp {
	target := req.Target
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.joined {
		return StepResp{}
	}
	for _, z := range n.zones {
		if z.Contains(target) {
			return StepResp{Done: true, Owner: n.ref}
		}
	}
	best := Ref{}
	bestDist := 0.0
	for _, addr := range n.sortedNeighborAddrsLocked() {
		nb := n.neighbors[addr]
		if nb.dead != 0 || excluded(req.Exclude, addr) || addr == n.host.Addr() {
			continue
		}
		for _, z := range nb.info.Zones {
			if d := z.Dist(target); best.IsZero() || d < bestDist {
				bestDist = d
				best = nb.info.Ref
			}
		}
	}
	return StepResp{Next: best}
}

func (n *Node) handleStep(rt transport.Runtime, from transport.Addr, req any) (any, error) {
	return n.step(req.(StepReq)), nil
}
