package grid

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
)

// Injection (DESIGN.md §11). The injection node routes a batch as one
// (Overlay.RouteJobs) and then performs one grid.ownbatch handoff per
// distinct owner.
// Results are positional: Results[i] answers Items[i], and a per-item
// failure (routing, handoff, backpressure) never poisons its
// batch-mates. A single submission is a batch of one.

// InjectBatch performs the injection-node role locally: assign GUIDs,
// route to the owners, and hand the jobs over. Exposed for clients that
// are themselves grid nodes; both wire handlers delegate here.
func (n *Node) InjectBatch(rt transport.Runtime, reqs []InjectReq) []InjectResult {
	began := rt.Now()
	results := make([]InjectResult, len(reqs))

	// Route the whole batch first, then group accepted items by owner.
	// Owner iteration order is sorted so the sim replays deterministically.
	type pending struct {
		idx  int
		prof Profile
		tc   obs.TC
	}
	profs := make([]Profile, len(reqs))
	for i, req := range reqs {
		profs[i] = Profile{
			ID:      JobGUID(req.Client, req.Seq, req.Attempt),
			Client:  req.Client,
			Seq:     req.Seq,
			Attempt: req.Attempt,
			JobSpec: req.spec(),
		}
		results[i].JobID = profs[i].ID
	}
	routes := n.overlay.RouteJobs(rt, profs)
	byOwner := make(map[transport.Addr][]pending)
	for i, req := range reqs {
		prof, route := profs[i], routes[i]
		if route.Err != nil {
			results[i].Err = fmt.Sprintf("route job %s: %v", prof.ID.Short(), route.Err)
			continue
		}
		tc := req.TC
		if tc.Zero() {
			// Untraced legacy sender: the trace ID is derivable from the
			// submission identity, so the lifecycle stays reconstructable.
			tc = obs.TC{ID: TraceID(req.Client, req.Seq)}
		}
		ev := n.jobEvent(EvInjected, prof, rt.Now())
		ev.Hops = route.Hops
		tc = n.emit(tc, ev, route.Owner, n.traceNote("hops=%d", route.Hops))
		results[i].Owner = route.Owner
		results[i].Hops = route.Hops
		byOwner[route.Owner] = append(byOwner[route.Owner], pending{idx: i, prof: prof, tc: tc})
	}
	owners := make([]transport.Addr, 0, len(byOwner))
	for o := range byOwner {
		owners = append(owners, o)
	}
	sort.Slice(owners, func(i, j int) bool { return owners[i] < owners[j] })

	for _, owner := range owners {
		group := byOwner[owner]
		breq := OwnBatchReq{Items: make([]OwnReq, len(group))}
		for k, p := range group {
			breq.Items[k] = OwnReq{Prof: p.prof, TC: p.tc}
		}
		raw, err := n.call(rt, owner, MOwnBatch, breq)
		if err != nil {
			for _, p := range group {
				results[p.idx].Err = fmt.Sprintf("hand job %s to owner %s: %v", p.prof.ID.Short(), owner, err)
			}
			continue
		}
		bresp := raw.(OwnBatchResp)
		for k, p := range group {
			if k >= len(bresp.Results) {
				results[p.idx].Err = fmt.Sprintf("owner %s: short batch response", owner)
				continue
			}
			results[p.idx].Reps = bresp.Results[k].Reps
			results[p.idx].RetryAfterMS = bresp.Results[k].RetryAfterMS
		}
	}
	n.om.injectSecs.Observe((rt.Now() - began).Seconds())
	return results
}

// handleInject serves the single-job wire method (gridctl submit, the
// benchmark's trickle client). Backpressure is an answer, not a handler
// failure: it crosses the wire in the response payload so the typed
// hint survives both transports.
func (n *Node) handleInject(rt transport.Runtime, from transport.Addr, req any) (any, error) {
	res := n.InjectBatch(rt, []InjectReq{req.(InjectReq)})[0]
	if res.Err != "" {
		return nil, res.resultErr()
	}
	return InjectResp{JobID: res.JobID, Owner: res.Owner, Hops: res.Hops, Reps: res.Reps, RetryAfterMS: res.RetryAfterMS}, nil
}

func (n *Node) handleInjectBatch(rt transport.Runtime, from transport.Addr, req any) (any, error) {
	return InjectBatchResp{Results: n.InjectBatch(rt, req.(InjectBatchReq).Items)}, nil
}

// resultErr renders one positional InjectResult as an error: a typed
// *RetryAfterError for owner backpressure, an opaque error for a
// routing or handoff failure, nil for an accepted job.
func (r InjectResult) resultErr() error {
	if r.RetryAfterMS > 0 {
		return &RetryAfterError{After: time.Duration(r.RetryAfterMS) * time.Millisecond}
	}
	if r.Err != "" {
		return errors.New("grid: inject: " + r.Err)
	}
	return nil
}
