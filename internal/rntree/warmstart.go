package rntree

import (
	"sort"
	"time"

	"repro/internal/chord"
	"repro/internal/ids"
	"repro/internal/transport"
)

// WarmStart wires a set of RN-Tree nodes (whose Chord ring is already
// converged, e.g. via chord.WarmStart) into a fully-built tree with
// exact aggregates, as of virtual time now. The periodic aggregation
// loops then maintain it. It returns the root.
func WarmStart(nodes []*Node, now time.Duration) *Node {
	sorted := make([]*Node, len(nodes))
	copy(sorted, nodes)
	sort.Slice(sorted, func(i, j int) bool {
		return sorted[i].chord.ID().Less(sorted[j].chord.ID())
	})
	ownerOf := func(key ids.ID) *Node {
		i := sort.Search(len(sorted), func(i int) bool { return !sorted[i].chord.ID().Less(key) })
		if i == len(sorted) {
			i = 0
		}
		return sorted[i]
	}

	// Determine every node's parent with the global ownership map.
	var root *Node
	childrenOf := make(map[*Node][]*Node, len(nodes))
	for _, n := range sorted {
		var parent *Node
		for key := range ancestorIDs(n.chord.ID()) {
			if owner := ownerOf(key); owner != n {
				parent = owner
				break
			}
		}
		n.mu.Lock()
		n.parent, n.isRoot = chord.Ref{}, parent == nil
		if parent == nil {
			root = n
		} else {
			n.parent = parent.chord.Ref()
			childrenOf[parent] = append(childrenOf[parent], n)
		}
		n.children = make(map[transport.Addr]*childEntry)
		n.mu.Unlock()
	}

	// Compute exact subtree summaries bottom-up and install child
	// entries on each parent.
	for _, kids := range childrenOf {
		sort.Slice(kids, func(i, j int) bool { return kids[i].host.Addr() < kids[j].host.Addr() })
	}
	var summarize func(n *Node) Summary
	summarize = func(n *Node) Summary {
		n.mu.Lock()
		sum := Summary{MaxCaps: n.caps, MinLoad: n.loadFn(), Nodes: 1, OSes: []string{n.os}}
		n.mu.Unlock()
		for _, child := range childrenOf[n] {
			cs := summarize(child)
			n.mu.Lock()
			n.children[child.host.Addr()] = &childEntry{ref: child.chord.Ref(), sum: cs, lastSeen: now}
			n.mu.Unlock()
			sum = sum.merge(cs)
		}
		return sum
	}
	if root != nil {
		summarize(root)
	}
	return root
}

// TreeHeight returns the height of a warm-started tree rooted at root
// — a diagnostic for the O(log N) height property.
func TreeHeight(nodes []*Node) int {
	depth := func(n *Node) int {
		d := 0
		byAddr := make(map[transport.Addr]*Node, len(nodes))
		for _, m := range nodes {
			byAddr[m.host.Addr()] = m
		}
		for !n.Parent().IsZero() {
			n = byAddr[n.Parent().Addr]
			if n == nil {
				break
			}
			d++
			if d > len(nodes) {
				break // cycle guard
			}
		}
		return d
	}
	max := 0
	for _, n := range nodes {
		if d := depth(n); d > max {
			max = d
		}
	}
	return max
}
