package match_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/chord"
	"repro/internal/grid"
	"repro/internal/ids"
	"repro/internal/match"
	"repro/internal/resource"
	"repro/internal/rntree"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/trust"
)

// rig wires a Chord+RN-Tree overlay for matchmaker integration tests.
type rig struct {
	e     *sim.Engine
	hosts []*simnet.Endpoint
	chs   []*chord.Node
	rns   []*rntree.Node
	loads []int
}

func newRig(t *testing.T, n int, seed int64, cfg rntree.Config, caps func(i int) resource.Vector) *rig {
	t.Helper()
	e := sim.NewEngine(seed)
	net := simnet.New(e)
	net.Latency = simnet.FixedLatency(10 * time.Millisecond)
	r := &rig{e: e, loads: make([]int, n)}
	for i := 0; i < n; i++ {
		h := net.NewEndpoint(transport.Addr(fmt.Sprintf("n%03d", i)))
		ch := chord.New(h, chord.Config{})
		rn := rntree.New(h, ch, caps(i), "linux", cfg)
		i := i
		rn.SetLoadFn(func() int { return r.loads[i] })
		r.hosts = append(r.hosts, h)
		r.chs = append(r.chs, ch)
		r.rns = append(r.rns, rn)
	}
	chord.WarmStart(r.chs)
	rntree.WarmStart(r.rns, 0)
	return r
}

func (r *rig) do(i int, fn func(rt transport.Runtime)) {
	done := false
	r.hosts[i].Go("test", func(rt transport.Runtime) {
		defer func() { done = true }()
		fn(rt)
	})
	for !done {
		r.e.RunFor(time.Second)
	}
}

func TestRNTreeMatchmakerPicksLeastLoaded(t *testing.T) {
	r := newRig(t, 24, 1, rntree.Config{K: 24}, func(i int) resource.Vector { return resource.Vector{5, 1024, 50} })
	defer r.e.Shutdown()
	for i := range r.loads {
		r.loads[i] = 10
	}
	r.loads[7] = 0
	// Refresh aggregates to reflect loads.
	rntree.WarmStart(r.rns, 0)
	m := &match.RNTree{RN: r.rns[3]}
	r.do(3, func(rt transport.Runtime) {
		addr, stats, err := m.FindRunNode(rt, resource.Unconstrained, nil)
		if err != nil {
			t.Fatalf("find: %v", err)
		}
		if addr != r.hosts[7].Addr() {
			t.Fatalf("chose %s (stats %+v), want n007", addr, stats)
		}
	})
}

func TestRNTreeMatchmakerHonorsExclude(t *testing.T) {
	r := newRig(t, 16, 2, rntree.Config{K: 4}, func(i int) resource.Vector { return resource.Vector{5, 1024, 50} })
	defer r.e.Shutdown()
	m := &match.RNTree{RN: r.rns[0]}
	var first transport.Addr
	r.do(0, func(rt transport.Runtime) {
		var err error
		first, _, err = m.FindRunNode(rt, resource.Unconstrained, nil)
		if err != nil {
			t.Fatalf("find: %v", err)
		}
		second, _, err := m.FindRunNode(rt, resource.Unconstrained, []transport.Addr{first})
		if err != nil {
			t.Fatalf("find excluded: %v", err)
		}
		if second == first {
			t.Fatal("excluded node chosen again")
		}
	})
}

func TestChordOverlayRoutesDeterministically(t *testing.T) {
	r := newRig(t, 16, 3, rntree.Config{}, func(i int) resource.Vector { return resource.Vector{5, 1024, 50} })
	defer r.e.Shutdown()
	ov := &match.ChordOverlay{Chord: r.chs[0]} // no walk: pure DHT mapping
	jobID := ids.HashString("routed-job")
	var owners []transport.Addr
	for trial := 0; trial < 3; trial++ {
		r.do(0, func(rt transport.Runtime) {
			owner, hops, err := ov.RouteJob(rt, jobID, resource.Unconstrained)
			if err != nil {
				t.Fatalf("route: %v", err)
			}
			if hops < 0 {
				t.Fatal("negative hops")
			}
			owners = append(owners, owner)
		})
	}
	if owners[0] != owners[1] || owners[1] != owners[2] {
		t.Fatalf("same GUID routed to different owners: %v", owners)
	}
}

func TestChordOverlayWalkSpreadsOwners(t *testing.T) {
	r := newRig(t, 32, 4, rntree.Config{}, func(i int) resource.Vector { return resource.Vector{5, 1024, 50} })
	defer r.e.Shutdown()
	ov := &match.ChordOverlay{Chord: r.chs[0], Walk: r.rns[0]}
	owners := map[transport.Addr]bool{}
	for trial := 0; trial < 20; trial++ {
		jobID := ids.HashString(fmt.Sprintf("walk-job-%d", trial))
		r.do(0, func(rt transport.Runtime) {
			owner, _, err := ov.RouteJob(rt, jobID, resource.Unconstrained)
			if err != nil {
				t.Fatalf("route: %v", err)
			}
			owners[owner] = true
		})
	}
	if len(owners) < 5 {
		t.Fatalf("walk did not spread owners: %d distinct", len(owners))
	}
}

func TestCentralRegistrySnapshotSorted(t *testing.T) {
	reg := match.NewRegistry()
	for _, a := range []transport.Addr{"c", "a", "b"} {
		reg.Register(a, match.RegistryEntry{
			Load: func() int { return 0 },
			Up:   func() bool { return true },
		})
	}
	snap := reg.Snapshot()
	if len(snap) != 3 || snap[0].Addr != "a" || snap[2].Addr != "c" {
		t.Fatalf("snapshot order: %+v", snap)
	}
}

func TestCentralSkipsDownAndUnsatisfying(t *testing.T) {
	reg := match.NewRegistry()
	mk := func(addr transport.Addr, cpu float64, up bool, load int) {
		reg.Register(addr, match.RegistryEntry{
			Caps: resource.Vector{cpu, 1024, 50},
			OS:   "linux",
			Load: func() int { return load },
			Up:   func() bool { return up },
		})
	}
	mk("dead-fast", 10, false, 0)
	mk("slow", 1, true, 0)
	mk("ok", 5, true, 3)
	c := &match.Central{Reg: reg}
	e := sim.NewEngine(1)
	net := simnet.New(e)
	h := net.NewEndpoint("t")
	done := false
	h.Go("t", func(rt transport.Runtime) {
		defer func() { done = true }()
		addr, _, err := c.FindRunNode(rt, resource.Unconstrained.Require(resource.CPU, 4), nil)
		if err != nil || addr != "ok" {
			t.Errorf("addr=%s err=%v", addr, err)
		}
		// Nothing satisfies cpu>=20.
		if _, _, err := c.FindRunNode(rt, resource.Unconstrained.Require(resource.CPU, 20), nil); err == nil {
			t.Error("impossible constraint satisfied")
		}
		// Excluding the only candidate fails.
		if _, _, err := c.FindRunNode(rt, resource.Unconstrained.Require(resource.CPU, 4), []transport.Addr{"ok"}); err == nil {
			t.Error("excluded-only candidate chosen")
		}
	})
	e.Run()
	if !done {
		t.Fatal("proc did not finish")
	}
	e.Shutdown()
}

func TestTTLFindsCommonMissesRare(t *testing.T) {
	// 48 nodes, budget 6: a common capability is found, a 1-in-48
	// capability usually is not.
	n := 48
	r := newRig(t, n, 5, rntree.Config{}, func(i int) resource.Vector {
		cpu := 5.0
		if i == 37 {
			cpu = 10
		}
		return resource.Vector{cpu, 1024, 50}
	})
	defer r.e.Shutdown()
	// Register probes on every host.
	for i := 0; i < n; i++ {
		match.RegisterProbe(r.hosts[i], r.rns[i].Caps(), "linux", func() int { return 0 }, r.chs[i])
	}
	mkTTL := func(i int) *match.TTL {
		return &match.TTL{
			Ring:   r.chs[i],
			Caps:   r.rns[i].Caps(),
			OS:     "linux",
			Load:   func() int { return 0 },
			Budget: 6,
		}
	}
	common := resource.Unconstrained.Require(resource.CPU, 3)
	rare := resource.Unconstrained.Require(resource.CPU, 9)
	foundCommon, foundRare := 0, 0
	for trial := 0; trial < 10; trial++ {
		src := (trial * 5) % n
		r.do(src, func(rt transport.Runtime) {
			if _, _, err := mkTTL(src).FindRunNode(rt, common, nil); err == nil {
				foundCommon++
			}
			if _, _, err := mkTTL(src).FindRunNode(rt, rare, nil); err == nil {
				foundRare++
			}
		})
	}
	if foundCommon != 10 {
		t.Fatalf("common capability found only %d/10 times", foundCommon)
	}
	if foundRare == 10 {
		t.Fatal("TTL never missed the rare capability — the related-work claim cannot reproduce")
	}
	t.Logf("rare found %d/10 with budget 6", foundRare)
}

// scriptedMatcher returns preset candidates in order, recording the
// exclusions it saw.
type scriptedMatcher struct {
	picks    []transport.Addr
	i        int
	excludes [][]transport.Addr
}

func (s *scriptedMatcher) FindRunNode(rt transport.Runtime, cons resource.Constraints, exclude []transport.Addr) (transport.Addr, grid.MatchStats, error) {
	s.excludes = append(s.excludes, append([]transport.Addr(nil), exclude...))
	if s.i >= len(s.picks) {
		return "", grid.MatchStats{}, fmt.Errorf("no candidate")
	}
	p := s.picks[s.i]
	s.i++
	return p, grid.MatchStats{Hops: 1}, nil
}

func TestTrustedExcludesBlacklisted(t *testing.T) {
	tb := trust.New()
	for i := 0; i < 2; i++ {
		tb.Disagree("bad") // 0.5 -> 0.2 -> 0: blacklisted
	}
	inner := &scriptedMatcher{picks: []transport.Addr{"good"}}
	m := &match.Trusted{Inner: inner, Table: tb}
	run, _, err := m.FindRunNode(nil, resource.Constraints{}, []transport.Addr{"held"})
	if err != nil || run != "good" {
		t.Fatalf("FindRunNode = (%v, %v)", run, err)
	}
	saw := inner.excludes[0]
	if len(saw) != 2 || saw[0] != "held" || saw[1] != "bad" {
		t.Fatalf("inner exclusions = %v, want [held bad]", saw)
	}
}

func TestTrustedRetriesSuspectCandidate(t *testing.T) {
	tb := trust.New()
	tb.Disagree("shady") // 0.2: below neutral, above blacklist
	inner := &scriptedMatcher{picks: []transport.Addr{"shady", "clean"}}
	m := &match.Trusted{Inner: inner, Table: tb}
	run, stats, err := m.FindRunNode(nil, resource.Constraints{}, nil)
	if err != nil || run != "clean" {
		t.Fatalf("FindRunNode = (%v, %v), want clean", run, err)
	}
	if stats.Hops != 2 {
		t.Fatalf("stats not combined across retry: %+v", stats)
	}
	if got := inner.excludes[1]; len(got) != 1 || got[0] != "shady" {
		t.Fatalf("retry exclusions = %v, want [shady]", got)
	}
}

func TestTrustedKeepsSuspectWhenNoBetter(t *testing.T) {
	tb := trust.New()
	tb.Disagree("shady")
	inner := &scriptedMatcher{picks: []transport.Addr{"shady"}} // retry fails
	m := &match.Trusted{Inner: inner, Table: tb}
	run, _, err := m.FindRunNode(nil, resource.Constraints{}, nil)
	if err != nil || run != "shady" {
		t.Fatalf("FindRunNode = (%v, %v), want the suspect as fallback", run, err)
	}
}
