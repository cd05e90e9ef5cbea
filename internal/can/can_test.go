package can

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/transport"
)

func hashOf(i int) ids.ID { return ids.HashString(fmt.Sprintf("h%d", i)) }

// mesh is a simulated CAN deployment for tests.
type mesh struct {
	e     *sim.Engine
	net   *simnet.Net
	hosts []*simnet.Endpoint
	nodes []*Node
}

func newMesh(t *testing.T, n int, seed int64, cfg Config, caps func(i int) (resource.Vector, string)) *mesh {
	t.Helper()
	e := sim.NewEngine(seed)
	net := simnet.New(e)
	net.Latency = simnet.UniformLatency{Min: 5 * time.Millisecond, Max: 20 * time.Millisecond}
	m := &mesh{e: e, net: net}
	for i := 0; i < n; i++ {
		h := net.NewEndpoint(transport.Addr(fmt.Sprintf("n%03d", i)))
		cv, os := caps(i)
		m.hosts = append(m.hosts, h)
		m.nodes = append(m.nodes, New(h, cv, os, cfg))
	}
	return m
}

func (m *mesh) do(i int, fn func(rt transport.Runtime)) {
	done := false
	m.hosts[i].Go("test", func(rt transport.Runtime) {
		defer func() { done = true }()
		fn(rt)
	})
	for !done {
		m.e.RunFor(time.Second)
	}
}

func capsVaried(i int) (resource.Vector, string) {
	oses := []string{"linux", "windows", "macos"}
	return resource.Vector{
		float64(1 + i%10),
		float64(256 * (1 + i%8)),
		float64(10 * (1 + i%16)),
	}, oses[i%len(oses)]
}

func capsUniform(i int) (resource.Vector, string) {
	return resource.Vector{5, 4096, 100}, "linux"
}

func TestWarmStartTilesSpace(t *testing.T) {
	m := newMesh(t, 40, 1, Config{}, capsVaried)
	defer m.e.Shutdown()
	WarmStart(m.nodes, 0)
	if msg := CoverageError(m.nodes, 3); msg != "" {
		t.Fatal(msg)
	}
	// Each node contains its own point (virtual dim active, points
	// distinct, so splits always preserve point-in-zone).
	for i, n := range m.nodes {
		found := false
		for _, z := range n.Zones() {
			if z.Contains(n.Point()) {
				found = true
			}
		}
		if !found {
			t.Fatalf("node %d displaced from its own zone", i)
		}
	}
}

func TestWarmStartNeighborsSymmetric(t *testing.T) {
	m := newMesh(t, 24, 2, Config{}, capsVaried)
	defer m.e.Shutdown()
	WarmStart(m.nodes, 0)
	byAddr := map[transport.Addr]*Node{}
	for i, n := range m.nodes {
		byAddr[m.hosts[i].Addr()] = n
	}
	for i, n := range m.nodes {
		for _, na := range n.Neighbors() {
			other := byAddr[na]
			sym := false
			for _, back := range other.Neighbors() {
				if back == m.hosts[i].Addr() {
					sym = true
				}
			}
			if !sym {
				t.Fatalf("neighbor relation %s->%s not symmetric", m.hosts[i].Addr(), na)
			}
		}
		if len(n.Neighbors()) == 0 {
			t.Fatalf("node %d has no neighbors", i)
		}
	}
}

func TestRouteReachesOwner(t *testing.T) {
	m := newMesh(t, 32, 3, Config{}, capsVaried)
	defer m.e.Shutdown()
	WarmStart(m.nodes, 0)
	for trial := 0; trial < 30; trial++ {
		var target Point
		rng := m.e.NewRand()
		for d := range target {
			target[d] = rng.Float64()
		}
		src := trial % len(m.nodes)
		m.do(src, func(rt transport.Runtime) {
			owner, hops, err := m.nodes[src].Route(rt, target)
			if err != nil {
				t.Errorf("route: %v", err)
				return
			}
			// Verify ownership.
			var ownerNode *Node
			for i, h := range m.hosts {
				if h.Addr() == owner.Addr {
					ownerNode = m.nodes[i]
				}
			}
			ok := false
			for _, z := range ownerNode.Zones() {
				if z.Contains(target) {
					ok = true
				}
			}
			if !ok {
				t.Errorf("routed to %s which does not own %v", owner.Addr, target)
			}
			if hops > 32 {
				t.Errorf("%d hops for 32 nodes", hops)
			}
		})
	}
}

func TestSequentialJoinsTileSpace(t *testing.T) {
	m := newMesh(t, 12, 4, Config{}, capsVaried)
	defer m.e.Shutdown()
	m.nodes[0].Create()
	m.nodes[0].Start()
	for i := 1; i < len(m.nodes); i++ {
		i := i
		m.do(i, func(rt transport.Runtime) {
			if err := m.nodes[i].Join(rt, m.hosts[0].Addr()); err != nil {
				t.Fatalf("join %d: %v", i, err)
			}
		})
		m.nodes[i].Start()
		m.e.RunFor(2 * time.Second)
	}
	m.e.RunFor(10 * time.Second)
	if msg := CoverageError(m.nodes, 3); msg != "" {
		t.Fatal(msg)
	}
	// Routing works between arbitrary pairs after joins.
	m.do(7, func(rt transport.Runtime) {
		if _, _, err := m.nodes[7].Route(rt, Point{0.9, 0.9, 0.9, 0.9}); err != nil {
			t.Fatalf("route after joins: %v", err)
		}
	})
}

func TestMatchPrefersLeastLoaded(t *testing.T) {
	m := newMesh(t, 16, 5, Config{}, capsUniform)
	defer m.e.Shutdown()
	loads := make([]int, 16)
	for i := range m.nodes {
		i := i
		m.nodes[i].SetLoadFn(func() int { return loads[i] })
	}
	for i := range loads {
		loads[i] = 5
	}
	loads[3] = 0
	WarmStart(m.nodes, 0) // neighbor info snapshots the loads
	// Find an owner adjacent to node 3 so it appears in the candidate
	// set; with uniform caps nobody strictly dominates, so the owner
	// itself is usually chosen — unless it IS node 3's neighborhood.
	m.do(3, func(rt transport.Runtime) {
		run, _, err := m.nodes[3].FindRunNode(rt, resource.Unconstrained, nil, false)
		if err != nil {
			t.Fatalf("match: %v", err)
		}
		if run.Addr != m.hosts[3].Addr() {
			t.Fatalf("expected owner itself (least loaded), got %s", run.Addr)
		}
	})
}

func TestMatchDominatingNeighborWins(t *testing.T) {
	m := newMesh(t, 16, 6, Config{}, capsVaried)
	defer m.e.Shutdown()
	for i := range m.nodes {
		i := i
		m.nodes[i].SetLoadFn(func() int { return 10 })
	}
	WarmStart(m.nodes, 0)
	// Give every node's neighbors a fresh view where one dominating
	// neighbor has load 0; run matchmaking from each node and confirm
	// the choice always satisfies the constraints.
	cons := resource.Unconstrained.Require(resource.CPU, 3)
	for src := 0; src < 16; src++ {
		src := src
		m.do(src, func(rt transport.Runtime) {
			run, _, err := m.nodes[src].FindRunNode(rt, cons, nil, false)
			if errors.Is(err, ErrNoCandidate) {
				return // acceptable from low-capability corners
			}
			if err != nil {
				t.Errorf("from %d: %v", src, err)
				return
			}
			for i, h := range m.hosts {
				if h.Addr() == run.Addr {
					if !cons.SatisfiedBy(m.nodes[i].Caps(), m.nodes[i].OS()) {
						t.Errorf("chosen node %d does not satisfy %s", i, cons)
					}
				}
			}
		})
	}
}

func TestMatchForwardsTowardCapability(t *testing.T) {
	// Only one node can satisfy the constraint; matchmaking starting at
	// the weakest corner must walk upward and find it.
	m := newMesh(t, 24, 7, Config{}, func(i int) (resource.Vector, string) {
		cpu := 2.0
		if i == 20 {
			cpu = 10
		}
		return resource.Vector{cpu, 1024, 50}, "linux"
	})
	defer m.e.Shutdown()
	WarmStart(m.nodes, 0)
	cons := resource.Unconstrained.Require(resource.CPU, 9)
	// Start from the owner of the job's insertion point, as the grid
	// layer would.
	m.do(0, func(rt transport.Runtime) {
		jobPt := m.nodes[0].JobPoint(ids.HashString("job1"), cons)
		owner, _, err := m.nodes[0].Route(rt, jobPt)
		if err != nil {
			t.Fatalf("route: %v", err)
		}
		var ownerIdx int
		for i, h := range m.hosts {
			if h.Addr() == owner.Addr {
				ownerIdx = i
			}
		}
		run, stats, err := m.nodes[ownerIdx].FindRunNode(rt, cons, nil, false)
		if err != nil {
			t.Fatalf("match: %v (stats %+v)", err, stats)
		}
		if run.Addr != m.hosts[20].Addr() {
			t.Fatalf("chose %s, want n020", run.Addr)
		}
	})
}

func TestMatchExcludes(t *testing.T) {
	m := newMesh(t, 8, 8, Config{}, capsUniform)
	defer m.e.Shutdown()
	WarmStart(m.nodes, 0)
	m.do(2, func(rt transport.Runtime) {
		run, _, err := m.nodes[2].FindRunNode(rt, resource.Unconstrained, []transport.Addr{m.hosts[2].Addr()}, false)
		if err != nil {
			// With uniform caps nobody dominates, so excluding the owner
			// may legitimately exhaust candidates after forwarding.
			if !errors.Is(err, ErrNoCandidate) {
				t.Fatalf("match: %v", err)
			}
			return
		}
		if run.Addr == m.hosts[2].Addr() {
			t.Fatal("excluded node chosen")
		}
	})
}

func TestMatchImpossible(t *testing.T) {
	m := newMesh(t, 8, 9, Config{}, capsUniform)
	defer m.e.Shutdown()
	WarmStart(m.nodes, 0)
	m.do(0, func(rt transport.Runtime) {
		_, _, err := m.nodes[0].FindRunNode(rt, resource.Unconstrained.Require(resource.CPU, 99), nil, false)
		if !errors.Is(err, ErrNoCandidate) {
			t.Fatalf("err = %v", err)
		}
	})
}

func TestVirtualDimSeparatesIdenticalNodes(t *testing.T) {
	m := newMesh(t, 16, 10, Config{}, capsUniform)
	defer m.e.Shutdown()
	WarmStart(m.nodes, 0)
	points := map[Point]bool{}
	for _, n := range m.nodes {
		points[n.Point()] = true
	}
	if len(points) != 16 {
		t.Fatalf("only %d distinct points for 16 identical nodes", len(points))
	}
	if msg := CoverageError(m.nodes, 3); msg != "" {
		t.Fatal(msg)
	}
}

func TestNoVirtualDimStillTiles(t *testing.T) {
	m := newMesh(t, 16, 11, Config{DisableVirtualDim: true}, capsUniform)
	defer m.e.Shutdown()
	WarmStart(m.nodes, 0)
	if msg := CoverageError(m.nodes, 3); msg != "" {
		t.Fatal(msg)
	}
}

func TestTakeoverHealsCoverage(t *testing.T) {
	m := newMesh(t, 16, 12, Config{}, capsVaried)
	defer m.e.Shutdown()
	WarmStart(m.nodes, 0)
	for _, n := range m.nodes {
		n.Start()
	}
	m.e.RunFor(3 * time.Second)
	victim := 5
	m.hosts[victim].Crash()
	m.e.RunFor(30 * time.Second)
	live := make([]*Node, 0, 15)
	for i, n := range m.nodes {
		if m.hosts[i].Up() {
			live = append(live, n)
		}
	}
	if msg := CoverageError(live, 3); msg != "" {
		t.Fatalf("coverage hole after takeover: %s", msg)
	}
	// Routing to a point in the dead node's former zone succeeds.
	deadZones := m.nodes[victim].Zones()
	target := deadZones[0].Center()
	m.do(0, func(rt transport.Runtime) {
		owner, _, err := m.nodes[0].Route(rt, target)
		if err != nil {
			t.Fatalf("route into dead zone: %v", err)
		}
		if owner.Addr == m.hosts[victim].Addr() {
			t.Fatal("route returned the dead node")
		}
	})
}

func TestGossipSpreadsLoadInfo(t *testing.T) {
	m := newMesh(t, 8, 13, Config{}, capsUniform)
	defer m.e.Shutdown()
	WarmStart(m.nodes, 0)
	for _, n := range m.nodes {
		n.Start()
	}
	m.nodes[2].SetLoadFn(func() int { return 77 })
	m.e.RunFor(5 * time.Second)
	// Some neighbor of node 2 must know its load.
	addr2 := m.hosts[2].Addr()
	known := false
	for i, n := range m.nodes {
		if i == 2 {
			continue
		}
		n.mu.Lock()
		if nb, ok := n.neighbors[addr2]; ok && nb.info.Load == 77 {
			known = true
		}
		n.mu.Unlock()
	}
	if !known {
		t.Fatal("load info did not spread via gossip")
	}
}

func TestPushMovesJobOffOverloadedOwner(t *testing.T) {
	// All nodes idle except the owner region; with push enabled the job
	// should land elsewhere.
	m := newMesh(t, 16, 14, Config{}, capsVaried)
	defer m.e.Shutdown()
	WarmStart(m.nodes, 0)
	for _, n := range m.nodes {
		n.Start()
	}
	// Pick the owner of the unconstrained-job region and overload it.
	var ownerIdx = -1
	m.do(0, func(rt transport.Runtime) {
		pt := m.nodes[0].JobPoint(ids.HashString("pushjob"), resource.Unconstrained)
		owner, _, err := m.nodes[0].Route(rt, pt)
		if err != nil {
			t.Fatalf("route: %v", err)
		}
		for i, h := range m.hosts {
			if h.Addr() == owner.Addr {
				ownerIdx = i
			}
		}
	})
	m.nodes[ownerIdx].SetLoadFn(func() int { return 50 })
	m.e.RunFor(5 * time.Second) // gossip + dir-load convergence
	m.do(ownerIdx, func(rt transport.Runtime) {
		run, stats, err := m.nodes[ownerIdx].FindRunNode(rt, resource.Unconstrained, nil, true)
		if err != nil {
			t.Fatalf("match: %v", err)
		}
		if run.Addr == m.hosts[ownerIdx].Addr() {
			t.Fatalf("push kept the job on the overloaded owner (stats %+v)", stats)
		}
		if stats.Pushes == 0 {
			t.Fatalf("no pushes recorded: %+v", stats)
		}
	})
}

func TestRefZero(t *testing.T) {
	var r Ref
	if !r.IsZero() || r.String() != "<none>" {
		t.Fatal("zero Ref misbehaves")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.MatchTTL == 0 {
		t.Fatalf("defaults not applied: %+v", c)
	}
	if c.DisableVirtualDim {
		t.Fatal("virtual dimension must default on")
	}
}
