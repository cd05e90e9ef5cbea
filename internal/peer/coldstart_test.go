package peer

import (
	"sort"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/resource"
	"repro/internal/transport"
)

// ruleParents applies the RN-Tree parent rule to the peers' ring
// identifiers on the true ring (package rntree's doc comment): clear
// the lowest set bit of the 24-bit ID prefix and take the owner of the
// result, climbing while that owner is the peer itself. The root maps
// to the zero address.
func ruleParents(ps []*Peer) map[*Peer]transport.Addr {
	const prefixBits = 24
	sorted := append([]*Peer(nil), ps...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Ring.ID().Less(sorted[j].Ring.ID()) })
	owner := func(key ids.ID) *Peer {
		i := sort.Search(len(sorted), func(i int) bool { return !sorted[i].Ring.ID().Less(key) })
		return sorted[i%len(sorted)]
	}
	out := make(map[*Peer]transport.Addr, len(ps))
	for _, p := range ps {
		prefix := p.Ring.ID().Prefix(prefixBits)
		for {
			if prefix != 0 {
				prefix = ids.ClearLowestSetBit(prefix)
			}
			if o := owner(ids.FromPrefix(prefix, prefixBits)); o != p {
				out[p] = o.Host.Addr()
				break
			}
			if prefix == 0 {
				break
			}
		}
	}
	return out
}

// TestColdStartReadyWithinThreeSeconds: eight peers launched in the
// same instant through one bootstrap, with the default 15 s
// ParentRefreshEvery, are a usable grid within 3 virtual seconds: every
// tree parent is the one the parent rule gives on the true ring, and a
// search from every peer for a node exactly as capable as any other
// peer finds one (the benchmark's readiness gate, in Go). The tree
// recomputes its parent when the ring around it changes and pushes a
// changed summary at once; on a timer, a parent computed on the
// half-formed ring waited out the refresh period.
func TestColdStartReadyWithinThreeSeconds(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		c := newCluster(t, seed, 8, Config{})
		for i := range c.peers {
			c.launch(t, i)
		}
		c.e.RunFor(3 * time.Second)

		for p, want := range ruleParents(c.peers) {
			if got := p.Tree.Parent().Addr; got != want {
				t.Errorf("seed %d: %s has parent %q, the parent rule gives %q", seed, p.Host.Addr(), got, want)
			}
		}
		for _, from := range c.peers {
			for _, target := range c.peers {
				caps := target.Tree.Caps()
				need := resource.Unconstrained
				for r := resource.Type(0); r < resource.NumTypes; r++ {
					need = need.Require(r, caps[r])
				}
				done, found := false, false
				from.Host.Go("search", func(rt transport.Runtime) {
					_, _, err := from.Tree.FindCandidates(rt, need, 1)
					done, found = true, err == nil
				})
				for !done {
					c.e.RunFor(10 * time.Millisecond)
				}
				if !found {
					t.Errorf("seed %d: %s cannot find a node as capable as %s", seed, from.Host.Addr(), target.Host.Addr())
				}
			}
		}
	}
}
