package rntree

import (
	"runtime"
	"testing"

	"repro/internal/chord"
	"repro/internal/transport"
)

// TestRandomWalksAroundCrashedNode: one node is crashed but still in
// its neighbours' routing tables (the ring runs no maintenance), and a
// batch of walks from every live node meets it. A walk whose call to it
// fails ends at its own previous hop: a live node whose routing state
// holds the crashed one. Its batch-mates elsewhere take all
// randomWalkLen steps.
func TestRandomWalksAroundCrashedNode(t *testing.T) {
	f := newForest(t, 16, 12, variedCaps)
	defer f.e.Shutdown()
	const crashed = 5
	dead := f.hosts[crashed].Addr()
	f.hosts[crashed].Crash()
	byAddr := map[transport.Addr]*chord.Node{}
	var starts []chord.Ref
	for i, ch := range f.chs {
		byAddr[f.hosts[i].Addr()] = ch
		if i != crashed {
			for k := 0; k < 4; k++ {
				starts = append(starts, ch.Ref())
			}
		}
	}
	var ends []chord.Ref
	var hops []int
	f.do(0, func(rt transport.Runtime) { ends, hops = f.rns[0].RandomWalks(rt, starts) })

	cut, finished := 0, 0
	for i, end := range ends {
		if hops[i] == randomWalkLen {
			// A last step may land on the crashed node: no call is made
			// from there, and the grid's handoff to it fails instead.
			if end.Addr != dead {
				finished++
			}
			continue
		}
		cut++
		if end.Addr == dead {
			t.Fatalf("walk %d ended at the crashed node after %d hops", i, hops[i])
		}
		holds := false
		for _, r := range byAddr[end.Addr].Neighbors(nil) {
			holds = holds || r.Addr == dead
		}
		if !holds {
			t.Errorf("walk %d stopped after %d hops at %s, which never routes to the crashed node", i, hops[i], end.Addr)
		}
	}
	if cut == 0 || finished == 0 {
		t.Fatalf("%d walks cut at the crashed node and %d finished elsewhere, want some of each", cut, finished)
	}
}

// TestWalkBatchBounded: rnt.walk's draw count comes off the wire. The
// handler refuses zero and anything above maxWalkBatch with an error,
// before allocating for it, and a walker splits a larger group into
// several calls.
func TestWalkBatchBounded(t *testing.T) {
	f := newForest(t, 4, 13, variedCaps)
	defer f.e.Shutdown()
	target := f.chs[1].Ref()
	f.do(0, func(rt transport.Runtime) {
		for _, n := range []int{0, -1, maxWalkBatch + 1, 1 << 30} {
			if _, err := rt.Call(target.Addr, MWalk, WalkReq{N: n}); err == nil {
				t.Errorf("rnt.walk with N = %d answered, want an error", n)
			}
		}
		raw, err := rt.Call(target.Addr, MWalk, WalkReq{N: maxWalkBatch})
		if err != nil {
			t.Fatalf("rnt.walk with N = %d: %v", maxWalkBatch, err)
		}
		if got := len(raw.(WalkResp).Next); got != maxWalkBatch {
			t.Fatalf("rnt.walk with N = %d answered %d draws", maxWalkBatch, got)
		}

		// A group larger than one call is split: sent whole, it would be
		// refused, and every walk in it would end at its start.
		starts := make([]chord.Ref, 2*maxWalkBatch+1)
		for i := range starts {
			starts[i] = target
		}
		_, hops := f.rns[0].RandomWalks(rt, starts)
		for i, h := range hops {
			if h != randomWalkLen {
				t.Fatalf("walk %d of a %d-walk group took %d hops, want %d", i, len(starts), h, randomWalkLen)
			}
		}
	})

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 100; i++ {
		if _, err := f.rns[1].handleWalk(nil, "", WalkReq{N: 1 << 30}); err == nil {
			t.Fatal("handleWalk with N = 1<<30 answered")
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("100 refused walks allocated %d bytes", grew)
	}
}
