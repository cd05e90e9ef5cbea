package rntree

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/chord"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// forest is a simulated Chord+RN-Tree deployment for tests.
type forest struct {
	e     *sim.Engine
	net   *simnet.Net
	hosts []*simnet.Endpoint
	chs   []*chord.Node
	rns   []*Node
}

func newForest(t *testing.T, n int, seed int64, caps func(i int) (resource.Vector, string)) *forest {
	t.Helper()
	e := sim.NewEngine(seed)
	net := simnet.New(e)
	net.Latency = simnet.UniformLatency{Min: 5 * time.Millisecond, Max: 20 * time.Millisecond}
	f := &forest{e: e, net: net}
	for i := 0; i < n; i++ {
		h := net.NewEndpoint(transport.Addr(fmt.Sprintf("n%03d", i)))
		ch := chord.New(h, chord.Config{})
		cv, os := caps(i)
		rn := New(h, ch, cv, os, Config{})
		f.hosts = append(f.hosts, h)
		f.chs = append(f.chs, ch)
		f.rns = append(f.rns, rn)
	}
	chord.WarmStart(f.chs)
	return f
}

func (f *forest) do(i int, fn func(rt transport.Runtime)) {
	done := false
	f.hosts[i].Go("test", func(rt transport.Runtime) {
		defer func() { done = true }()
		fn(rt)
	})
	for !done {
		f.e.RunFor(time.Second)
	}
}

func uniformCaps(resource.Vector, string) func(int) (resource.Vector, string) {
	return func(int) (resource.Vector, string) {
		return resource.Vector{5, 4096, 100}, "linux"
	}
}

func variedCaps(i int) (resource.Vector, string) {
	oses := []string{"linux", "windows", "macos"}
	return resource.Vector{
		float64(1 + i%10),
		float64(256 * (1 + i%8)),
		float64(10 * (1 + i%16)),
	}, oses[i%len(oses)]
}

func TestWarmStartBuildsSingleRootedTree(t *testing.T) {
	f := newForest(t, 64, 1, variedCaps)
	defer f.e.Shutdown()
	root := WarmStart(f.rns, 0)
	if root == nil {
		t.Fatal("no root")
	}
	roots := 0
	for _, n := range f.rns {
		if n.Parent().IsZero() {
			roots++
		}
	}
	if roots != 1 {
		t.Fatalf("%d roots, want 1", roots)
	}
	h := TreeHeight(f.rns)
	if h < 1 || h > 4*int(math.Log2(64)) {
		t.Fatalf("tree height %d implausible for 64 nodes", h)
	}
	t.Logf("height=%d for 64 nodes", h)
}

func TestWarmStartRootSummaryCoversAllNodes(t *testing.T) {
	f := newForest(t, 32, 2, variedCaps)
	defer f.e.Shutdown()
	root := WarmStart(f.rns, 0)
	sum := root.localSummary(0)
	if sum.Nodes != 32 {
		t.Fatalf("root summary covers %d nodes, want 32", sum.Nodes)
	}
	// Max caps across all nodes must match the true maximum.
	var want resource.Vector
	for _, n := range f.rns {
		want = want.Max(n.caps)
	}
	if sum.MaxCaps != want {
		t.Fatalf("root MaxCaps %v, want %v", sum.MaxCaps, want)
	}
	if len(sum.OSes) != 3 {
		t.Fatalf("root OSes %v", sum.OSes)
	}
}

func TestAggregationConvergesWithoutWarmStart(t *testing.T) {
	f := newForest(t, 16, 3, variedCaps)
	defer f.e.Shutdown()
	for _, rn := range f.rns {
		rn.Start()
	}
	f.e.RunFor(60 * time.Second)
	// Identify the root and check it has aggregated everyone.
	var root *Node
	for _, n := range f.rns {
		if n.Parent().IsZero() {
			if root != nil {
				t.Fatal("two roots")
			}
			root = n
		}
	}
	if root == nil {
		t.Fatal("no root emerged")
	}
	sum := root.localSummary(time.Duration(f.e.Now()))
	if sum.Nodes != 16 {
		t.Fatalf("root sees %d nodes, want 16", sum.Nodes)
	}
}

func TestSearchFindsRareCapableNode(t *testing.T) {
	// Exactly one node has cpu=10; every search must find it.
	f := newForest(t, 48, 4, func(i int) (resource.Vector, string) {
		cpu := 2.0
		if i == 17 {
			cpu = 10
		}
		return resource.Vector{cpu, 1024, 50}, "linux"
	})
	defer f.e.Shutdown()
	WarmStart(f.rns, 0)
	cons := resource.Unconstrained.Require(resource.CPU, 9)
	for _, start := range []int{0, 17, 31, 47} {
		start := start
		f.do(start, func(rt transport.Runtime) {
			cands, stats, err := f.rns[start].FindCandidates(rt, cons, 1)
			if err != nil {
				t.Errorf("from %d: %v", start, err)
				return
			}
			if len(cands) == 0 || cands[0].Ref.Addr != f.hosts[17].Addr() {
				t.Errorf("from %d: candidates %v", start, cands)
			}
			if stats.Visits > 64 {
				t.Errorf("visits %d exceeded budget", stats.Visits)
			}
		})
	}
}

func TestSearchReturnsKCandidates(t *testing.T) {
	f := newForest(t, 40, 5, variedCaps)
	defer f.e.Shutdown()
	WarmStart(f.rns, 0)
	f.do(0, func(rt transport.Runtime) {
		cands, _, err := f.rns[0].FindCandidates(rt, resource.Unconstrained, 4)
		if err != nil {
			t.Fatalf("find: %v", err)
		}
		if len(cands) < 4 {
			t.Fatalf("got %d candidates, want >= 4", len(cands))
		}
		seen := map[transport.Addr]bool{}
		for _, c := range cands {
			if seen[c.Ref.Addr] {
				t.Fatalf("duplicate candidate %s", c.Ref.Addr)
			}
			seen[c.Ref.Addr] = true
		}
	})
}

func TestSearchImpossibleConstraint(t *testing.T) {
	f := newForest(t, 16, 6, variedCaps)
	defer f.e.Shutdown()
	WarmStart(f.rns, 0)
	cons := resource.Unconstrained.Require(resource.CPU, 99)
	f.do(0, func(rt transport.Runtime) {
		_, _, err := f.rns[0].FindCandidates(rt, cons, 1)
		if !errors.Is(err, ErrNoCandidate) {
			t.Fatalf("err = %v, want ErrNoCandidate", err)
		}
	})
}

func TestSearchHonorsOSConstraint(t *testing.T) {
	f := newForest(t, 30, 7, variedCaps)
	defer f.e.Shutdown()
	WarmStart(f.rns, 0)
	cons := resource.Unconstrained.RequireOS("macos")
	f.do(3, func(rt transport.Runtime) {
		cands, _, err := f.rns[3].FindCandidates(rt, cons, 3)
		if err != nil {
			t.Fatalf("find: %v", err)
		}
		for _, c := range cands {
			for i, h := range f.hosts {
				if h.Addr() == c.Ref.Addr && f.rns[i].os != "macos" {
					t.Fatalf("candidate %s has os %s", c.Ref.Addr, f.rns[i].os)
				}
			}
		}
	})
}

func TestSearchPruningLimitsVisits(t *testing.T) {
	// Constraint satisfiable by many nodes: the search should stop well
	// short of visiting the whole tree.
	f := newForest(t, 64, 8, variedCaps)
	defer f.e.Shutdown()
	WarmStart(f.rns, 0)
	f.do(9, func(rt transport.Runtime) {
		_, stats, err := f.rns[9].FindCandidates(rt, resource.Unconstrained, 4)
		if err != nil {
			t.Fatalf("find: %v", err)
		}
		if stats.Visits > 32 {
			t.Fatalf("unconstrained search visited %d of 64 nodes", stats.Visits)
		}
	})
}

func TestRandomWalkTerminatesAndMoves(t *testing.T) {
	f := newForest(t, 32, 9, variedCaps)
	defer f.e.Shutdown()
	moved := 0
	for trial := 0; trial < 10; trial++ {
		f.do(0, func(rt transport.Runtime) {
			end, hops := f.rns[0].RandomWalk(rt)
			if hops > randomWalkLen {
				t.Fatalf("walk took %d hops", hops)
			}
			if end.Addr != f.hosts[0].Addr() {
				moved++
			}
		})
	}
	if moved == 0 {
		t.Fatal("random walk never left the origin in 10 trials")
	}
}

func TestLoadFnReflectedInCandidates(t *testing.T) {
	f := newForest(t, 8, 10, uniformCaps(resource.Vector{}, ""))
	defer f.e.Shutdown()
	WarmStart(f.rns, 0)
	f.rns[5].SetLoadFn(func() int { return 42 })
	// Re-warm to refresh aggregates after load change.
	WarmStart(f.rns, 0)
	f.do(0, func(rt transport.Runtime) {
		cands, _, err := f.rns[0].FindCandidates(rt, resource.Unconstrained, 8)
		if err != nil {
			t.Fatalf("find: %v", err)
		}
		for _, c := range cands {
			if c.Ref.Addr == f.hosts[5].Addr() && c.Load != 42 {
				t.Fatalf("node 5 load = %d, want 42", c.Load)
			}
		}
	})
}

func TestSummaryMerge(t *testing.T) {
	a := Summary{MaxCaps: resource.Vector{1, 9, 3}, MinLoad: 5, Nodes: 2, OSes: []string{"linux"}}
	b := Summary{MaxCaps: resource.Vector{4, 2, 3}, MinLoad: 1, Nodes: 3, OSes: []string{"macos", "linux"}}
	m := a.merge(b)
	if m.MaxCaps != (resource.Vector{4, 9, 3}) || m.MinLoad != 1 || m.Nodes != 5 {
		t.Fatalf("merge = %+v", m)
	}
	if len(m.OSes) != 2 {
		t.Fatalf("OSes = %v", m.OSes)
	}
}

func TestSummaryMightSatisfy(t *testing.T) {
	s := Summary{MaxCaps: resource.Vector{4, 1024, 100}, OSes: []string{"linux"}}
	if !s.mightSatisfy(resource.Unconstrained.Require(resource.CPU, 4)) {
		t.Fatal("boundary capability pruned")
	}
	if s.mightSatisfy(resource.Unconstrained.Require(resource.CPU, 5)) {
		t.Fatal("unsatisfiable constraint not pruned")
	}
	if s.mightSatisfy(resource.Unconstrained.RequireOS("windows")) {
		t.Fatal("missing OS not pruned")
	}
	if !s.mightSatisfy(resource.Unconstrained.RequireOS("linux")) {
		t.Fatal("present OS pruned")
	}
}

func TestChildExpiry(t *testing.T) {
	f := newForest(t, 12, 11, variedCaps)
	defer f.e.Shutdown()
	for _, rn := range f.rns {
		rn.Start()
	}
	f.e.RunFor(30 * time.Second)
	var root *Node
	var rootIdx int
	for i, n := range f.rns {
		if n.Parent().IsZero() {
			root, rootIdx = n, i
		}
	}
	if root == nil {
		t.Fatal("no root")
	}
	before := root.localSummary(time.Duration(f.e.Now())).Nodes
	if before != 12 {
		t.Fatalf("root sees %d nodes before crash", before)
	}
	// Crash a child subtree; the root's summary must shrink.
	victim := (rootIdx + 1) % len(f.rns)
	f.hosts[victim].Crash()
	f.e.RunFor(60 * time.Second)
	after := root.localSummary(time.Duration(f.e.Now())).Nodes
	if after >= before {
		t.Fatalf("root still sees %d nodes after crash (before %d)", after, before)
	}
}

// TestRootExpiresSilentChild: the root pushes no summary upward, but it
// must still drop a child that stopped reporting, or searches keep
// visiting the dead address forever.
func TestRootExpiresSilentChild(t *testing.T) {
	f := newForest(t, 12, 11, variedCaps)
	defer f.e.Shutdown()
	root := WarmStart(f.rns, 0)
	for _, rn := range f.rns {
		rn.Start()
	}
	f.e.RunFor(10 * time.Second)
	kids := root.Children()
	if len(kids) == 0 {
		t.Fatal("root has no children")
	}
	victim := kids[0]
	for _, h := range f.hosts {
		if h.Addr() == victim {
			h.Crash()
		}
	}
	// One jittered aggregation round past the TTL.
	f.e.RunFor(3*root.cfg.AggregateEvery + 2*root.cfg.AggregateEvery)
	for _, a := range root.Children() {
		if a == victim {
			t.Fatalf("root still lists %s, silent for more than 3x AggregateEvery", victim)
		}
	}
}
