package chord

import (
	"fmt"
	"sort"
)

// CheckRing reports the first way the nodes in live (every node still
// up, in any order) fail to form a correct Chord ring:
//   - following successors visits every live node once, in ID order;
//   - every predecessor is the previous live node;
//   - every successor list is the true next live nodes, in order;
//   - every finger is the true successor of its start.
//
// Fingers are refreshed fingersPerRound at a time, so call it after a
// full fix-fingers cycle of quiet: no joins, no crashes.
func CheckRing(live []*Node) error {
	sorted := make([]*Node, len(live))
	copy(sorted, live)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].id.Less(sorted[j].id) })
	n := len(sorted)
	for i, nd := range sorted {
		nd.mu.Lock()
		pred, succs, fingers := nd.pred, append([]Ref(nil), nd.succs...), nd.fingers
		nd.mu.Unlock()
		self := nd.Ref()

		if want := sorted[(i-1+n)%n].Ref(); pred != want {
			return fmt.Errorf("chord: %s predecessor is %s, want %s", self, pred, want)
		}
		// Entry 0 is the successor pointer: each node's being the next in
		// ID order is the walk that visits every live node once.
		listLen := min(successorListLen, n)
		for j := 0; j < listLen; j++ {
			want := sorted[(i+1+j)%n].Ref()
			if j >= len(succs) || succs[j] != want {
				return fmt.Errorf("chord: %s successor list %v, entry %d should be %s", self, succs, j, want)
			}
		}
		if len(succs) > listLen {
			return fmt.Errorf("chord: %s successor list %v is longer than %d", self, succs, listLen)
		}
		for k, f := range fingers {
			start := nd.id.AddPow2(k)
			if want := sorted[OwnerIndex(sorted, start)].Ref(); f != want {
				return fmt.Errorf("chord: %s finger %d (start %s) is %s, want %s", self, k, start.Short(), f, want)
			}
		}
	}
	return nil
}
