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
	parentOf := make(map[*Node]*Node, len(nodes))
	for _, n := range sorted {
		p := n.chord.ID().Prefix(prefixBits)
		var parent *Node
		for {
			if p == 0 {
				owner := ownerOf(ids.FromPrefix(0, prefixBits))
				if owner != n {
					parent = owner
				}
				break
			}
			p = ids.ClearLowestSetBit(p)
			owner := ownerOf(ids.FromPrefix(p, prefixBits))
			if owner != n {
				parent = owner
				break
			}
		}
		if parent == nil {
			root = n
		} else {
			parentOf[n] = parent
		}
		n.mu.Lock()
		if parent != nil {
			n.parent = parent.chord.Ref()
			n.isRoot = false
		} else {
			n.parent = chord.Ref{}
			n.isRoot = true
		}
		n.children = make(map[transport.Addr]*childEntry)
		n.mu.Unlock()
	}

	// Compute exact subtree summaries bottom-up and install child
	// entries on each parent.
	childrenOf := make(map[*Node][]*Node, len(nodes))
	for child, parent := range parentOf {
		childrenOf[parent] = append(childrenOf[parent], child)
	}
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
