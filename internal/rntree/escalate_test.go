package rntree

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/resource"
	"repro/internal/transport"
)

// zeroAddr is an address whose SHA-1, and so whose node's GUID, starts
// with 24 zero bits: its m-bit prefix is 0.
const zeroAddr transport.Addr = "zero18488645"

// depth counts the parents above n in a built tree.
func depth(f *forest, n *Node) int {
	byAddr := make(map[transport.Addr]*Node, len(f.rns))
	for _, m := range f.rns {
		byAddr[m.host.Addr()] = m
	}
	d := 0
	for p := n.Parent(); !p.IsZero(); p = byAddr[p.Addr].Parent() {
		d++
	}
	return d
}

// rntCalls sums the rnt.* requests the network has delivered.
func rntCalls(f *forest) int64 {
	var sum int64
	for m, c := range f.net.Stats.ByMethod {
		if strings.HasPrefix(m, "rnt.") {
			sum += c
		}
	}
	return sum
}

// TestAncestorIDs: the parent rule's identifiers, nearest first.
func TestAncestorIDs(t *testing.T) {
	for _, c := range []struct {
		prefix uint64
		want   []uint64
	}{
		{0, []uint64{0}},
		{1, []uint64{0}},
		{0b1011, []uint64{0b1010, 0b1000, 0}},
		{1 << (prefixBits - 1), []uint64{0}},
	} {
		var got []uint64
		for key := range ancestorIDs(ids.FromPrefix(c.prefix, prefixBits)) {
			got = append(got, key.Prefix(prefixBits))
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("prefix %b: ancestors %b, want %b", c.prefix, got, c.want)
		}
	}
}

// TestOneParentRule: WarmStart, which resolves owners from the sorted
// ring, and computeParent, which resolves them by Chord lookups, give
// every node the same parent. Each ring holds a node whose prefix is 0.
func TestOneParentRule(t *testing.T) {
	if p := ids.HashString(string(zeroAddr)).Prefix(prefixBits); p != 0 {
		t.Fatalf("%s has prefix %d, want 0", zeroAddr, p)
	}
	for _, size := range []int{1, 2, 3, 16, 64} {
		t.Run(fmt.Sprint(size), func(t *testing.T) {
			addrs := []transport.Addr{zeroAddr}
			for i := 1; i < size; i++ {
				addrs = append(addrs, transport.Addr(fmt.Sprintf("n%03d", i)))
			}
			f := newForestAt(t, addrs, int64(size), variedCaps)
			defer f.e.Shutdown()
			if root := WarmStart(f.rns, 0); root == nil || root.host.Addr() != zeroAddr {
				t.Fatalf("the prefix-0 node %s is not the root", zeroAddr)
			}
			for i, n := range f.rns {
				f.do(i, func(rt transport.Runtime) {
					p, err := n.computeParent(rt)
					if err != nil {
						t.Errorf("%s: %v", n.host.Addr(), err)
						return
					}
					if p != n.Parent() {
						t.Errorf("%s: computeParent %v, WarmStart %v", n.host.Addr(), p, n.Parent())
					}
				})
			}
		})
	}
}

// TestSearchAccounting: in a warm tree with maintenance off, a search
// from every node asks for more candidates than the tree holds, so it
// escalates to the root, one level per ancestor, and finds every node.
// The rnt.* requests the network carried equal the RPCs its stats
// report: the escalation asks no node for its parent.
func TestSearchAccounting(t *testing.T) {
	const size = 32
	f := newForest(t, size, 21, uniformCaps(resource.Vector{}, ""))
	defer f.e.Shutdown()
	WarmStart(f.rns, 0)
	var sent, counted int64
	for i, n := range f.rns {
		f.do(i, func(rt transport.Runtime) {
			before := rntCalls(f)
			cands, stats, err := n.FindCandidates(rt, resource.Unconstrained, size+1)
			if err != nil {
				t.Errorf("from %s: %v", n.host.Addr(), err)
				return
			}
			carried := rntCalls(f) - before
			sent += carried
			counted += int64(stats.RPCs)
			if carried != int64(stats.RPCs) {
				t.Errorf("from %s: %d rnt.* requests carried, stats say %d", n.host.Addr(), carried, stats.RPCs)
			}
			if d := depth(f, n); stats.Escalations != d {
				t.Errorf("from %s: %d escalations, want its depth %d", n.host.Addr(), stats.Escalations, d)
			}
			if len(cands) != size {
				t.Errorf("from %s: %d candidates, want %d", n.host.Addr(), len(cands), size)
			}
		})
	}
	t.Logf("%d searches: %d rnt.* requests carried, %d counted", size, sent, counted)
}

// TestRootSearchLooksNothingUp: a search at the root that wants more
// than the tree holds ends at the root's own subtree without a Chord
// lookup: the root knows it has no parent.
func TestRootSearchLooksNothingUp(t *testing.T) {
	f := newForest(t, 16, 22, uniformCaps(resource.Vector{}, ""))
	defer f.e.Shutdown()
	root := WarmStart(f.rns, 0)
	i := slices.Index(f.rns, root)
	f.do(i, func(rt transport.Runtime) {
		before := f.chs[i].Lookups
		cands, stats, err := root.FindCandidates(rt, resource.Unconstrained, 17)
		if err != nil {
			t.Error(err)
			return
		}
		if len(cands) != 16 || stats.Escalations != 0 {
			t.Errorf("%d candidates and %d escalations, want 16 and 0", len(cands), stats.Escalations)
		}
		if n := f.chs[i].Lookups - before; n != 0 {
			t.Errorf("the root's search made %d Chord lookups, want 0", n)
		}
	})
}

// TestSearchBudgetBounded: an rnt.search's budget comes off the wire.
// One call at the root of a 128-node tree asking for every node with a
// budget of 1<<30 visits at most maxVisits of them.
func TestSearchBudgetBounded(t *testing.T) {
	f := newForest(t, 128, 23, uniformCaps(resource.Vector{}, ""))
	defer f.e.Shutdown()
	root := WarmStart(f.rns, 0)
	from := (slices.Index(f.rns, root) + 1) % len(f.rns)
	f.do(from, func(rt transport.Runtime) {
		// Time enough for the whole tree, so that a search that is not
		// bounded shows as visits, not as a timeout.
		raw, err := rt.CallT(root.host.Addr(), MSearch, SearchReq{
			Cons:   resource.Unconstrained,
			K:      1 << 30,
			Budget: 1 << 30,
		}, time.Minute)
		if err != nil {
			t.Error(err)
			return
		}
		if v := raw.(SearchResp).Visits; v > maxVisits {
			t.Errorf("one rnt.search visited %d nodes, want at most %d", v, maxVisits)
		}
	})
}
