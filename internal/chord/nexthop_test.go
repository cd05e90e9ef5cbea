package chord

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ids"
	"repro/internal/transport"
)

// closestPrecedingScan is the next-hop rule as first written: every one
// of the 160 fingers considered, repeats and all. It is the reference
// closestPrecedingLocked must agree with.
func (n *Node) closestPrecedingScan(key ids.ID) Ref {
	best := Ref{}
	consider := func(r Ref) {
		if r.IsZero() || r.ID == n.id {
			return
		}
		if !ids.Between(r.ID, n.id, key) {
			return
		}
		if best.IsZero() || ids.Between(best.ID, n.id, r.ID) {
			best = r
		}
	}
	for i := ids.Bits - 1; i >= 0; i-- {
		consider(n.fingers[i])
	}
	for _, s := range n.succs {
		consider(s)
	}
	if best.IsZero() {
		return n.succs[0]
	}
	return best
}

func testRef(i int) Ref {
	addr := transport.Addr(fmt.Sprintf("n%03d", i))
	return Ref{ID: ids.HashString(string(addr)), Addr: addr}
}

// randomTables gives n a finger table of long runs of one ref, broken
// by zero entries, self, and refs that share an ID or an address with
// another one, and a short successor list.
func randomTables(rng *rand.Rand, n *Node, self Ref, pool []Ref) {
	odd := []Ref{
		{},
		self,
		{ID: pool[0].ID},                     // zero (no address), real ID
		{ID: pool[1].ID, Addr: "alias"},      // another address, same ID
		{ID: ids.ID{}, Addr: pool[2].Addr},   // real address, ID 0
		{ID: ids.FromUint64(1), Addr: "one"}, // next to 0
	}
	for i := 0; i < ids.Bits; {
		var r Ref
		switch rng.Intn(4) {
		case 0:
			r = odd[rng.Intn(len(odd))]
		default:
			r = pool[rng.Intn(len(pool))]
		}
		run := 1 + rng.Intn(40)
		for ; run > 0 && i < ids.Bits; run-- {
			n.fingers[i] = r
			i++
		}
	}
	n.succs = n.succs[:0]
	for k := 1 + rng.Intn(4); k > 0; k-- {
		n.succs = append(n.succs, pool[rng.Intn(len(pool))])
	}
}

// TestClosestPrecedingMatchesFullScan checks that skipping repeated
// fingers never changes the next hop, on tables built to trip it: runs
// of up to 40 equal entries, zero entries, self, and refs that differ
// from their neighbour in only the ID or only the address.
func TestClosestPrecedingMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pool := make([]Ref, 12)
	for i := range pool {
		pool[i] = testRef(i)
	}
	for trial := 0; trial < 300; trial++ {
		self := testRef(100 + trial%5)
		if trial%7 == 0 {
			self.ID = ids.ID{} // a node at 0: (self, key) starts at the wrap point
		}
		n := &Node{id: self.ID}
		randomTables(rng, n, self, pool)
		var keys []ids.ID
		for k := 0; k < 20; k++ {
			var key ids.ID
			rng.Read(key[:])
			keys = append(keys, key)
		}
		for _, r := range append(n.fingers[:], n.succs...) {
			keys = append(keys, r.ID, r.ID.Add(ids.FromUint64(1)), r.ID.Sub(ids.FromUint64(1)))
		}
		keys = append(keys, n.id, ids.ID{}.Sub(ids.FromUint64(1)))
		for _, key := range keys {
			if got, want := n.closestPrecedingLocked(key), n.closestPrecedingScan(key); got != want {
				t.Fatalf("trial %d key %s: next hop %v, full scan %v", trial, key.Short(), got, want)
			}
		}
	}
}

// BenchmarkClosestPreceding measures one next-hop choice on a 48-node
// ring's finger table, the size of the sim_maint benchmark workload.
func BenchmarkClosestPreceding(b *testing.B) {
	pool := make([]Ref, 48)
	for i := range pool {
		pool[i] = testRef(i)
	}
	self := pool[0]
	n := &Node{id: self.ID}
	// Finger k holds the successor of self + 2^k: the node the shortest
	// clockwise distance from it.
	for k := 0; k < ids.Bits; k++ {
		start := self.ID.AddPow2(k)
		best := pool[0]
		for _, r := range pool {
			if ids.Distance(start, r.ID).Less(ids.Distance(start, best.ID)) {
				best = r
			}
		}
		n.fingers[k] = best
	}
	n.succs = []Ref{pool[1], pool[2], pool[3]}
	keys := make([]ids.ID, 64)
	rng := rand.New(rand.NewSource(1))
	for i := range keys {
		rng.Read(keys[i][:])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nextHop = n.closestPrecedingLocked(keys[i%len(keys)])
	}
}

var nextHop Ref
