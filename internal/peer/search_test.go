package peer

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/resource"
	"repro/internal/rntree"
	"repro/internal/transport"
)

// TestLiveSearchEscalation: five loopback-TCP peers. Every peer's
// rnt.search reply names that peer's parent after the gob round trip,
// and a search from the deepest peer that wants more candidates than
// the grid holds escalates once per ancestor, following those replies
// to the root. The rnt.search calls the peers' clients made equal the
// RPCs the search's stats report: the escalation sends nothing else.
func TestLiveSearchEscalation(t *testing.T) {
	const peers = 5
	ps, obss := liveGrid(t, peers)

	// A parent can still move while the ring settles. Each attempt waits
	// for a tree that has held still for 200 ms, and a search whose tree
	// moved under it anyway is run again, up to three times.
	for attempt := 1; ; attempt++ {
		parents, depth := settledTree(t, ps, 10)
		leaf := 0
		for i, d := range depth {
			if d > depth[leaf] {
				leaf = i
			}
		}

		var failed []string
		var stats rntree.SearchStats
		var calls int64
		var named int
		done := make(chan struct{})
		ps[leaf].Host.Go("search", func(rt transport.Runtime) {
			defer close(done)
			before := clientCalls(obss, rntree.MSearch)
			var err error
			if _, stats, err = ps[leaf].Tree.FindCandidates(rt, resource.Unconstrained, peers+1); err != nil {
				failed = append(failed, err.Error())
				return
			}
			calls = clientCalls(obss, rntree.MSearch) - before
			for _, p := range ps {
				raw, err := rt.Call(p.Host.Addr(), rntree.MSearch, rntree.SearchReq{Queries: []rntree.Query{{Cons: resource.Unconstrained, Budget: 1}}})
				if err != nil {
					failed = append(failed, fmt.Sprintf("rnt.search at %s: %v", p.Host.Addr(), err))
					continue
				}
				if got, want := raw.(rntree.SearchResp).Parent, p.Tree.Parent(); got != want {
					failed = append(failed, fmt.Sprintf("rnt.search at %s names parent %v, want %v", p.Host.Addr(), got, want))
				} else if !got.IsZero() {
					named++
				}
			}
		})
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("search did not return within 30 s")
		}
		if after, _, ok := liveTree(ps); (!ok || !slices.Equal(after, parents)) && attempt < 3 {
			t.Logf("attempt %d: the tree moved during the search", attempt)
			continue
		}
		for _, f := range failed {
			t.Error(f)
		}
		if stats.Escalations != depth[leaf] {
			t.Errorf("search from a peer at depth %d escalated %d times", depth[leaf], stats.Escalations)
		}
		if calls != int64(stats.RPCs) {
			t.Errorf("%d rnt.search client calls, stats report %d RPCs", calls, stats.RPCs)
		}
		if named != peers-1 {
			t.Errorf("%d replies named a parent, want %d", named, peers-1)
		}
		t.Logf("depths %v; search from depth %d: %d escalations, %d visits, %d rnt.search calls", depth, depth[leaf], stats.Escalations, stats.Visits, calls)
		return
	}
}
