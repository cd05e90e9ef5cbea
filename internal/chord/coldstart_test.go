package chord_test

import (
	"sort"
	"testing"
	"time"

	"repro/internal/chord"
	"repro/internal/transport"
)

// pointersExact reports whether every node's successor and predecessor
// are the true next and previous nodes: the ring proper, without the
// successor lists and fingers CheckRing also checks.
func pointersExact(nodes []*chord.Node) bool {
	sorted := append([]*chord.Node(nil), nodes...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID().Less(sorted[j].ID()) })
	n := len(sorted)
	for i, nd := range sorted {
		if nd.Successor() != sorted[(i+1)%n].Ref() || nd.Predecessor() != sorted[(i+n-1)%n].Ref() {
			return false
		}
	}
	return true
}

// TestColdJoinConvergesInRoundTrips: eight nodes join through one
// bootstrap at the same instant, so every join returns the bootstrap as
// successor, and each starts maintenance as soon as its join returns.
// Join hints splice the nodes in round trips: the successor and
// predecessor pointers are exact within 4 stabilize periods of the last
// Start, and chord.CheckRing (successor lists and fingers too) passes
// within 8. Repairing about one link per period, the ring took 7-13
// periods to close and 11-22 to pass CheckRing (seeds 1-30); with
// hints, 1.5-3 and 2-6, and 10 on one seed, where a refresh reached a
// node whose successor pointer was still stale and the last list entry
// travelled at the periodic pace. Fix-fingers runs fast here so that
// the fingers, which a join does not hint, are not what the test times.
func TestColdJoinConvergesInRoundTrips(t *testing.T) {
	const joiners = 8
	cfg := chord.Config{StabilizeEvery: 500 * time.Millisecond, FixFingersEvery: 10 * time.Millisecond}
	for seed := int64(1); seed <= 5; seed++ {
		r := newRing(t, seed)
		boot := r.addNode(cfg)
		boot.Create()
		boot.Start()
		var lastStart time.Duration
		started := 0
		for i := 1; i <= joiners; i++ {
			n := r.addNode(cfg)
			r.hosts[i].Go("join", func(rt transport.Runtime) {
				if err := n.Join(rt, boot.Ref().Addr); err != nil {
					t.Errorf("seed %d: join: %v", seed, err)
					return
				}
				n.Start()
				lastStart = rt.Now()
				started++
			})
		}
		for started < joiners && !t.Failed() {
			r.e.RunFor(10 * time.Millisecond)
		}
		closed, exact := time.Duration(-1), time.Duration(-1)
		for exact < 0 && time.Duration(r.e.Now())-lastStart < 8*cfg.StabilizeEvery {
			r.e.RunFor(10 * time.Millisecond)
			since := time.Duration(r.e.Now()) - lastStart
			if closed < 0 && pointersExact(r.nodes) {
				closed = since
			}
			if chord.CheckRing(r.nodes) == nil {
				exact = since
			}
		}
		if closed < 0 || closed > 4*cfg.StabilizeEvery {
			t.Errorf("seed %d: successors and predecessors exact after %v, want within %v", seed, closed, 4*cfg.StabilizeEvery)
		}
		if exact < 0 {
			t.Errorf("seed %d: %v after %v", seed, chord.CheckRing(r.nodes), 8*cfg.StabilizeEvery)
		}
		r.shutdown()
	}
}
