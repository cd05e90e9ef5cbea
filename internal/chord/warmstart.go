package chord

import (
	"sort"

	"repro/internal/ids"
)

// WarmStart wires a set of nodes into a fully-converged ring: exact
// predecessors, successor lists, and finger tables. Large experiments
// use it to skip simulating thousands of sequential joins; the periodic
// maintenance loops then keep the ring converged. The return value is
// the nodes sorted by ring identifier.
func WarmStart(nodes []*Node) []*Node {
	sorted := make([]*Node, len(nodes))
	copy(sorted, nodes)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].id.Less(sorted[j].id) })

	n := len(sorted)
	refs := make([]Ref, n)
	for i, nd := range sorted {
		refs[i] = nd.Ref()
	}
	// ownerOf returns the successor of key among the sorted refs.
	ownerOf := func(key ids.ID) Ref {
		i := sort.Search(n, func(i int) bool { return !refs[i].ID.Less(key) })
		if i == n {
			i = 0 // wrap: key is above all ids
		}
		return refs[i]
	}

	for i, nd := range sorted {
		nd.mu.Lock()
		nd.pred = refs[(i-1+n)%n]
		nd.succs = nd.succs[:0]
		for j := 1; j <= min(successorListLen, n); j++ {
			nd.succs = append(nd.succs, refs[(i+j)%n])
		}
		if len(nd.succs) == 0 {
			nd.succs = []Ref{nd.Ref()}
		}
		for k := 0; k < ids.Bits; k++ {
			nd.fingers[k] = ownerOf(nd.id.AddPow2(k))
		}
		nd.mu.Unlock()
	}
	return sorted
}

// OwnerIndex returns the index within a WarmStart-sorted node slice of
// the node owning key. It is the reference implementation lookups are
// tested against.
func OwnerIndex(sorted []*Node, key ids.ID) int {
	n := len(sorted)
	i := sort.Search(n, func(i int) bool { return !sorted[i].id.Less(key) })
	if i == n {
		return 0
	}
	return i
}
