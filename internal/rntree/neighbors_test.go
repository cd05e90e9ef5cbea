package rntree

import (
	"testing"

	"repro/internal/chord"
	"repro/internal/transport"
)

// neighborsMap is the candidate list as first written: a set of seen
// addresses per walk step. neighbors must return the same list in the
// same order, so one draw picks the same node.
func neighborsMap(self transport.Addr, fingers, succs []chord.Ref) []chord.Ref {
	var opts []chord.Ref
	seen := map[transport.Addr]bool{self: true}
	for _, f := range append(append([]chord.Ref(nil), fingers...), succs...) {
		if !f.IsZero() && !seen[f.Addr] {
			seen[f.Addr] = true
			opts = append(opts, f)
		}
	}
	return opts
}

func TestNeighborsMatchesMapVersion(t *testing.T) {
	for _, n := range []int{8, 48, 250} {
		f := newForest(t, n, int64(n), variedCaps)
		for i, ch := range f.chs {
			table := ch.FingerTable()
			// Zero a run of fingers the way a purged dead node leaves them.
			if i%3 == 0 {
				for k := 100; k < 110; k++ {
					table[k] = chord.Ref{}
				}
			}
			self := f.hosts[i].Addr()
			succs := ch.SuccessorList()
			got := neighbors(nil, self, table[:], succs)
			want := neighborsMap(self, table[:], succs)
			if len(got) != len(want) {
				t.Fatalf("N=%d node %d: %d candidates, map version %d", n, i, len(got), len(want))
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("N=%d node %d: candidate %d is %v, map version %v", n, i, j, got[j], want[j])
				}
			}
		}
		f.e.Shutdown()
	}
}
