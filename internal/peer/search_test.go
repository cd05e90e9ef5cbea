package peer

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/chord"
	"repro/internal/grid"
	"repro/internal/nettransport"
	"repro/internal/obs"
	"repro/internal/resource"
	"repro/internal/rntree"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestLiveSearchEscalation: five loopback-TCP peers. Every peer's
// rnt.search reply names that peer's parent after the gob round trip,
// and a search from the deepest peer that wants more candidates than
// the grid holds escalates once per ancestor, following those replies
// to the root. The rnt.search calls the peers' clients made equal the
// RPCs the search's stats report: the escalation sends nothing else.
func TestLiveSearchEscalation(t *testing.T) {
	const peers = 5
	wire.RegisterAll()
	ps := make([]*Peer, peers)
	obss := make([]*obs.Obs, peers)
	for i := range ps {
		h, err := nettransport.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close()
		obss[i] = obs.New()
		h.SetObs(obss[i])
		ps[i] = New(h, resource.Vector{5, 2048, 50}, "linux", nil, Config{
			Chord: chord.Config{StabilizeEvery: 50 * time.Millisecond, FixFingersEvery: 50 * time.Millisecond},
			Tree:  rntree.Config{AggregateEvery: 100 * time.Millisecond},
			Grid:  grid.Config{HeartbeatEvery: 200 * time.Millisecond},
		})
	}
	boot := transport.Addr("")
	for _, p := range ps {
		if err := p.LaunchWait(boot); err != nil {
			t.Fatal(err)
		}
		boot = ps[0].Host.Addr()
	}

	// tree reads every peer's parent. It reports the peers' depths (the
	// ancestors above each) once they form one tree: a single root, and
	// every other peer's parent chain reaching it.
	byAddr := make(map[transport.Addr]*Peer, peers)
	for _, p := range ps {
		byAddr[p.Host.Addr()] = p
	}
	tree := func() (parents []chord.Ref, depth []int, ok bool) {
		for _, p := range ps {
			parents = append(parents, p.Tree.Parent())
		}
		roots := 0
		for i, p := range ps {
			d := 0
			for q := p.Tree.Parent(); !q.IsZero(); q = byAddr[q.Addr].Tree.Parent() {
				if byAddr[q.Addr] == nil || d == peers {
					return nil, nil, false
				}
				d++
			}
			depth = append(depth, d)
			if d == 0 {
				roots++
			}
			if parents[i] != p.Tree.Parent() {
				return nil, nil, false
			}
		}
		return parents, depth, roots == 1
	}
	searchCalls := func() int64 {
		var sum int64
		for _, o := range obss {
			sum += o.Registry().Counter("rpc_client_calls_total", "method", rntree.MSearch).Value()
		}
		return sum
	}

	// A parent can still move while the ring settles. Each attempt waits
	// for a tree that has held still for 200 ms, and a search whose tree
	// moved under it anyway is run again, up to three times.
	for attempt := 1; ; attempt++ {
		var parents []chord.Ref
		var depth []int
		for still, deadline := 0, time.Now().Add(10*time.Second); still < 10; time.Sleep(20 * time.Millisecond) {
			prev := parents
			var ok bool
			if parents, depth, ok = tree(); ok && slices.Equal(parents, prev) {
				still++
			} else {
				still = 0
			}
			if time.Now().After(deadline) {
				t.Fatal("no single tree holding still after 10 s")
			}
		}
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
			before := searchCalls()
			var err error
			if _, stats, err = ps[leaf].Tree.FindCandidates(rt, resource.Unconstrained, peers+1); err != nil {
				failed = append(failed, err.Error())
				return
			}
			calls = searchCalls() - before
			for _, p := range ps {
				raw, err := rt.Call(p.Host.Addr(), rntree.MSearch, rntree.SearchReq{Cons: resource.Unconstrained, Budget: 1})
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
		if after, _, ok := tree(); (!ok || !slices.Equal(after, parents)) && attempt < 3 {
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
