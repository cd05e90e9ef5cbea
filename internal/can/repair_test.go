package can

import (
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/transport"
)

func TestResolveOverlapSmallerIDWins(t *testing.T) {
	m := newMesh(t, 2, 20, Config{}, capsUniform)
	defer m.e.Shutdown()
	WarmStart(m.nodes, 0)
	a, b := m.nodes[0], m.nodes[1]
	// Force a conflict: give both nodes an identical extra zone.
	extra := Zone{Lo: Point{0.1, 0.1, 0.1, 0.1}, Hi: Point{0.2, 0.2, 0.2, 0.2}}
	a.mu.Lock()
	a.zones = append(a.zones, extra)
	aID := a.ref.ID
	a.mu.Unlock()
	b.mu.Lock()
	b.zones = append(b.zones, extra)
	bID := b.ref.ID
	b.mu.Unlock()

	// The node with the larger ID must yield when it absorbs the
	// smaller-ID node's claim.
	loser, winner := a, b
	if bID.Less(aID) {
		loser, winner = a, b
	} else {
		loser, winner = b, a
	}
	loser.mu.Lock()
	loser.resolveOverlapLocked(winner.info())
	zonesAfter := len(loser.zones)
	loser.mu.Unlock()
	if zonesAfter != 1 {
		t.Fatalf("loser kept %d zones, want 1 (the conflict dropped)", zonesAfter)
	}
	// The winner absorbing the loser's info keeps both zones.
	winner.mu.Lock()
	winner.resolveOverlapLocked(loser.info())
	kept := len(winner.zones)
	winner.mu.Unlock()
	if kept != 2 {
		t.Fatalf("winner kept %d zones, want 2", kept)
	}
}

func TestGossipLearnsTwoHopNeighbors(t *testing.T) {
	// After a takeover, far-side nodes learn the claimer through shared
	// neighbors' digests. Simulate directly: absorb a digest naming an
	// unknown node whose zone abuts ours.
	m := newMesh(t, 4, 21, Config{}, capsVaried)
	defer m.e.Shutdown()
	WarmStart(m.nodes, 0)
	n := m.nodes[0]
	// Craft a brief for a fictitious node whose zone abuts one of ours.
	myZone := n.Zones()[0]
	if myZone.Hi[0] >= 1 {
		t.Skip("node 0 owns the upper face in dim 0; pick a different seed")
	}
	ghost := Brief{
		Ref:   Ref{ID: ids.HashString("ghost"), Addr: "ghost:1"},
		Zones: []Zone{{Lo: pointWith(myZone.Lo, 0, myZone.Hi[0]), Hi: pointWith(myZone.Hi, 0, 1.0)}},
	}
	// Make the ghost zone overlap our extents in other dims exactly.
	for d := 1; d < Dims; d++ {
		ghost.Zones[0].Lo[d] = myZone.Lo[d]
		ghost.Zones[0].Hi[d] = myZone.Hi[d]
	}
	n.absorb(0, m.nodes[1].info(), []Brief{ghost})
	found := false
	for _, a := range n.Neighbors() {
		if a == "ghost:1" {
			found = true
		}
	}
	if !found {
		t.Fatal("two-hop neighbor from digest not adopted")
	}
}

func pointWith(p Point, dim int, v float64) Point {
	p[dim] = v
	return p
}

func TestMultipleCrashesStillRoutable(t *testing.T) {
	m := newMesh(t, 20, 22, Config{}, capsVaried)
	defer m.e.Shutdown()
	WarmStart(m.nodes, 0)
	for _, n := range m.nodes {
		n.Start()
	}
	m.e.RunFor(2 * time.Second)
	// Crash 5 nodes in waves.
	for i, victim := range []int{3, 7, 11, 15, 19} {
		at := time.Duration(i) * 2 * time.Second
		victim := victim
		m.e.Schedule(at, func() { m.hosts[victim].Crash() })
	}
	m.e.RunFor(time.Minute)
	// Connectivity after heavy churn: points inside surviving nodes'
	// original zones stay reachable from an arbitrary survivor. (Points
	// in dead territory may stay contested; the single-failure guarantee
	// is TestTakeoverHealsCoverage.)
	ok, total := 0, 0
	for i, nd := range m.nodes {
		if !m.hosts[i].Up() || i == 0 {
			continue
		}
		target := nd.Zones()[0].Center()
		total++
		m.do(0, func(rt transport.Runtime) {
			owner, _, err := m.nodes[0].Route(rt, target)
			if err == nil && owner.Addr != "" {
				ok++
			}
		})
	}
	if ok < total*9/10 {
		t.Fatalf("only %d/%d live-zone routes succeeded after churn", ok, total)
	}
}
