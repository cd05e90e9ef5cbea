package grid

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
)

// Injection (DESIGN.md §11). The injection node routes every item of a
// batch and then performs one grid.ownbatch handoff per distinct owner.
// Results are positional: Results[i] answers Items[i], and a per-item
// failure (routing, handoff, backpressure) never poisons its
// batch-mates. A single submission is a batch of one.

// InjectBatch performs the injection-node role locally: assign GUIDs,
// route to the owners, and hand the jobs over. Exposed for clients that
// are themselves grid nodes; both wire handlers delegate here.
func (n *Node) InjectBatch(rt transport.Runtime, reqs []InjectReq) []InjectResult {
	began := rt.Now()
	results := make([]InjectResult, len(reqs))

	// Route every item first, grouping accepted ones by owner. Owner
	// iteration order is sorted so the sim replays deterministically.
	type pending struct {
		idx  int
		prof Profile
		tc   obs.TC
	}
	byOwner := make(map[transport.Addr][]pending)
	for i, req := range reqs {
		prof := Profile{
			ID:          JobGUID(req.Client, req.Seq, req.Attempt),
			Client:      req.Client,
			Seq:         req.Seq,
			Attempt:     req.Attempt,
			Cons:        req.Cons,
			Work:        req.Work,
			InputKB:     req.InputKB,
			OutputKB:    req.OutputKB,
			Input:       req.Input,
			CkptBias:    req.CkptBias,
			CarryOutput: req.CarryOutput,
		}
		results[i].JobID = prof.ID
		tc := req.TC
		if tc.Zero() {
			// Untraced legacy sender: the trace ID is derivable from the
			// submission identity, so the lifecycle stays reconstructable.
			tc = obs.TC{ID: TraceID(req.Client, req.Seq)}
		}
		owner, hops, err := n.overlay.RouteJob(rt, prof.ID, prof.Cons)
		if err != nil {
			results[i].Err = fmt.Sprintf("route job %s: %v", prof.ID.Short(), err)
			continue
		}
		ev := n.jobEvent(EvInjected, prof, rt.Now())
		ev.Hops = hops
		tc = n.emit(tc, ev, owner, n.traceNote("hops=%d", hops))
		results[i].Owner = owner
		results[i].Hops = hops
		byOwner[owner] = append(byOwner[owner], pending{idx: i, prof: prof, tc: tc})
	}
	owners := make([]transport.Addr, 0, len(byOwner))
	for o := range byOwner {
		owners = append(owners, o)
	}
	sort.Slice(owners, func(i, j int) bool { return owners[i] < owners[j] })

	for _, owner := range owners {
		group := byOwner[owner]
		if owner == n.host.Addr() {
			for _, p := range group {
				if err := n.ownJob(rt, p.prof, p.tc); err != nil {
					setBatchErr(&results[p.idx], err)
					continue
				}
				results[p.idx].Reps = n.replTargets()
			}
			continue
		}
		breq := OwnBatchReq{Items: make([]OwnReq, len(group))}
		for k, p := range group {
			breq.Items[k] = OwnReq{Prof: p.prof, TC: p.tc}
		}
		raw, err := rt.Call(owner, MOwnBatch, breq)
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

// setBatchErr renders a local ownJob failure into a positional result:
// backpressure becomes the retry-after hint, anything else an opaque
// per-item error string.
func setBatchErr(res *InjectResult, err error) {
	if ra, ok := err.(*RetryAfterError); ok {
		res.RetryAfterMS = ra.After.Milliseconds()
		return
	}
	res.Err = err.Error()
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
