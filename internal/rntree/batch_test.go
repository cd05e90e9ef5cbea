package rntree

import (
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/resource"
	"repro/internal/transport"
)

// TestSearchBatchEqualsSingles: in a warm 32-node tree with maintenance
// off and fixed loads, a batch of mixed-constraint queries from each
// node returns, per query, what a search of its own returns: the same
// candidates, visits, messages and escalations. The batch asks each
// other node at most once.
func TestSearchBatchEqualsSingles(t *testing.T) {
	const size = 32
	f := newForest(t, size, 24, variedCaps)
	defer f.e.Shutdown()
	WarmStart(f.rns, 0)
	for i, n := range f.rns {
		load := i % 3
		n.SetLoadFn(func() int { return load })
	}
	qs := []Query{
		{Cons: resource.Unconstrained, K: 4},
		{Cons: resource.Unconstrained.Require(resource.CPU, 7), K: 2},
		{Cons: resource.Unconstrained.RequireOS("macos"), K: 3},
		{Cons: resource.Unconstrained.Require(resource.CPU, 99), K: 1},
		{Cons: resource.Unconstrained, K: size + 1},
		{Cons: resource.Unconstrained.Require(resource.Memory, 1800).RequireOS("windows"), K: 4},
		{Cons: resource.Unconstrained.Require(resource.CPU, 10), K: 1},
		{Cons: resource.Unconstrained},
	}
	var batchCalls, singleCalls int64
	for i, n := range f.rns {
		f.do(i, func(rt transport.Runtime) {
			var singles []Found
			before := f.net.Stats.ByMethod[MSearch]
			for _, q := range qs {
				cands, stats, err := n.FindCandidates(rt, q.Cons, q.K)
				singles = append(singles, Found{Cands: cands, Stats: stats, Err: err})
			}
			mid := f.net.Stats.ByMethod[MSearch]
			batch := n.FindCandidatesAll(rt, qs)
			calls := f.net.Stats.ByMethod[MSearch] - mid
			singleCalls += mid - before
			batchCalls += calls
			if calls > size-1 {
				t.Errorf("from %s: the batch sent %d rnt.search calls, want at most %d", n.host.Addr(), calls, size-1)
			}
			for k, s := range singles {
				b := batch[k]
				if !slices.Equal(b.Cands, s.Cands) || b.Stats != s.Stats || (b.Err == nil) != (s.Err == nil) {
					t.Errorf("from %s, query %d (%s, k=%d): batch %v %+v %v, alone %v %+v %v",
						n.host.Addr(), k, qs[k].Cons, qs[k].K, b.Cands, b.Stats, b.Err, s.Cands, s.Stats, s.Err)
				}
			}
		})
	}
	t.Logf("%d batches of %d queries: %d rnt.search calls, %d searched one by one", size, len(qs), batchCalls, singleCalls)
}

// forgedQueries returns a query slice whose header claims count
// entries over one real one: what a broken decoder could hand the
// handler. Only its length may be read.
func forgedQueries(count int) []Query {
	var q Query
	h := struct {
		p    unsafe.Pointer
		l, c int
	}{unsafe.Pointer(&q), count, count}
	return *(*[]Query)(unsafe.Pointer(&h))
}

// TestSearchBatchBounded: rnt.search's query count comes off the wire.
// The handler refuses zero and anything above maxSearchBatch, before
// allocating for it, and a searcher splits a larger batch into several
// calls. A count of 1<<30 comes as a forged slice header, since no
// test can afford the slice. (rnt.walk's test also sends -1; a slice's
// length cannot be negative.)
func TestSearchBatchBounded(t *testing.T) {
	const size = 16
	f := newForest(t, size, 25, uniformCaps(resource.Vector{}, ""))
	defer f.e.Shutdown()
	root := WarmStart(f.rns, 0)
	leaf := 0
	for i, n := range f.rns {
		if depth(f, n) > depth(f, f.rns[leaf]) {
			leaf = i
		}
	}
	f.do(leaf, func(rt transport.Runtime) {
		for _, count := range []int{0, maxSearchBatch + 1} {
			if _, err := rt.Call(root.host.Addr(), MSearch, SearchReq{Queries: make([]Query, count)}); err == nil {
				t.Errorf("rnt.search with %d queries answered, want an error", count)
			}
		}
	})

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 100; i++ {
		if _, err := root.handleSearch(nil, "", SearchReq{Queries: forgedQueries(1 << 30)}); err == nil {
			t.Fatal("handleSearch with 1<<30 queries answered")
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("100 refused searches allocated %d bytes", grew)
	}

	// A batch larger than one call is split: sent whole, every call
	// would be refused, and no query could reach past the leaf.
	qs := slices.Repeat([]Query{{Cons: resource.Unconstrained, K: size + 1}}, 2*maxSearchBatch+1)
	f.do(leaf, func(rt transport.Runtime) {
		before := f.net.Stats.ByMethod[MSearch]
		found := f.rns[leaf].FindCandidatesAll(rt, qs)
		calls := f.net.Stats.ByMethod[MSearch] - before
		if len(found) != len(qs) {
			t.Fatalf("%d queries gave %d answers", len(qs), len(found))
		}
		for i, fd := range found {
			if len(fd.Cands) != size || fd.Stats.Escalations != depth(f, f.rns[leaf]) {
				t.Fatalf("query %d of %d: %d candidates and %d escalations, want %d and %d",
					i, len(qs), len(fd.Cands), fd.Stats.Escalations, size, depth(f, f.rns[leaf]))
			}
		}
		if calls > 3*(size-1) {
			t.Errorf("%d queries in 3 parts sent %d rnt.search calls, want at most %d", len(qs), calls, 3*(size-1))
		}
	})
}
