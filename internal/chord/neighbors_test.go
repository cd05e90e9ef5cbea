package chord

import (
	"math/rand"
	"testing"

	"repro/internal/transport"
)

// neighborsMap is the neighbour list as first written: a set of seen
// addresses over fingers then successors. appendNeighbors must return
// the same list in the same order, so one random draw over it picks the
// same node.
func neighborsMap(self transport.Addr, fingers, succs []Ref) []Ref {
	var opts []Ref
	seen := map[transport.Addr]bool{self: true}
	for _, f := range append(append([]Ref(nil), fingers...), succs...) {
		if !f.IsZero() && !seen[f.Addr] {
			seen[f.Addr] = true
			opts = append(opts, f)
		}
	}
	return opts
}

// TestNeighborsMatchesMapVersion checks the run-skipping scan against
// the set on tables built to trip it: long runs of one ref, zero
// entries, self, and refs that share only an ID or only an address.
func TestNeighborsMatchesMapVersion(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pool := make([]Ref, 12)
	for i := range pool {
		pool[i] = testRef(i)
	}
	for trial := 0; trial < 300; trial++ {
		self := testRef(100 + trial%5)
		n := &Node{id: self.ID}
		randomTables(rng, n, self, pool)
		got := appendNeighbors(nil, self.Addr, n.fingers[:], n.succs)
		want := neighborsMap(self.Addr, n.fingers[:], n.succs)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d neighbours, map version %d", trial, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("trial %d: neighbour %d is %v, map version %v", trial, j, got[j], want[j])
			}
		}
	}
}
