package match_test

import (
	"fmt"
	"slices"
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

// findOne asks m to match one job: a batch of one.
func findOne(m grid.Matchmaker, rt transport.Runtime, cons resource.Constraints, exclude []transport.Addr) (transport.Addr, grid.MatchStats, error) {
	r := m.FindRunNodes(rt, []grid.MatchReq{{Cons: cons, Exclude: exclude}})[0]
	return r.Run, r.Stats, r.Err
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
		addr, stats, err := findOne(m, rt, resource.Unconstrained, nil)
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
		first, _, err = findOne(m, rt, resource.Unconstrained, nil)
		if err != nil {
			t.Fatalf("find: %v", err)
		}
		second, _, err := findOne(m, rt, resource.Unconstrained, []transport.Addr{first})
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
			route := ov.RouteJobs(rt, []grid.Profile{{ID: jobID}})[0]
			if route.Err != nil {
				t.Fatalf("route: %v", route.Err)
			}
			if route.Hops < 0 {
				t.Fatal("negative hops")
			}
			owners = append(owners, route.Owner)
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
			route := ov.RouteJobs(rt, []grid.Profile{{ID: jobID}})[0]
			if route.Err != nil {
				t.Fatalf("route: %v", route.Err)
			}
			owners[route.Owner] = true
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
		addr, _, err := findOne(c, rt, resource.Unconstrained.Require(resource.CPU, 4), nil)
		if err != nil || addr != "ok" {
			t.Errorf("addr=%s err=%v", addr, err)
		}
		// Nothing satisfies cpu>=20.
		if _, _, err := findOne(c, rt, resource.Unconstrained.Require(resource.CPU, 20), nil); err == nil {
			t.Error("impossible constraint satisfied")
		}
		// Excluding the only candidate fails.
		if _, _, err := findOne(c, rt, resource.Unconstrained.Require(resource.CPU, 4), []transport.Addr{"ok"}); err == nil {
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
			if _, _, err := findOne(mkTTL(src), rt, common, nil); err == nil {
				foundCommon++
			}
			if _, _, err := findOne(mkTTL(src), rt, rare, nil); err == nil {
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

// scriptedMatcher returns preset candidates in order, one per job,
// recording the exclusions it saw and counting its calls.
type scriptedMatcher struct {
	picks    []transport.Addr
	i        int
	excludes [][]transport.Addr
	calls    int
}

func (s *scriptedMatcher) FindRunNodes(_ transport.Runtime, reqs []grid.MatchReq) []grid.MatchResult {
	s.calls++
	results := make([]grid.MatchResult, len(reqs))
	for i, r := range reqs {
		s.excludes = append(s.excludes, slices.Clone(r.Exclude))
		if s.i >= len(s.picks) {
			results[i].Err = fmt.Errorf("no candidate")
			continue
		}
		results[i] = grid.MatchResult{Run: s.picks[s.i], Stats: grid.MatchStats{Hops: 1}}
		s.i++
	}
	return results
}

func TestTrustedExcludesBlacklisted(t *testing.T) {
	tb := trust.New()
	for i := 0; i < 2; i++ {
		tb.Disagree("bad") // 0.5 -> 0.2 -> 0: blacklisted
	}
	inner := &scriptedMatcher{picks: []transport.Addr{"good"}}
	m := &match.Trusted{Inner: inner, Table: tb}
	run, _, err := findOne(m, nil, resource.Constraints{}, []transport.Addr{"held"})
	if err != nil || run != "good" {
		t.Fatalf("findOne = (%v, %v)", run, err)
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
	run, stats, err := findOne(m, nil, resource.Constraints{}, nil)
	if err != nil || run != "clean" {
		t.Fatalf("findOne = (%v, %v), want clean", run, err)
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
	run, _, err := findOne(m, nil, resource.Constraints{}, nil)
	if err != nil || run != "shady" {
		t.Fatalf("findOne = (%v, %v), want the suspect as fallback", run, err)
	}
}

// TestTrustedRetriesSuspectsInOneSubBatch: in a batch of three, the two
// jobs whose picks are suspects are matched again together, in one
// more call of the wrapped matchmaker, and each takes its better-reputed
// alternative; the clean pick stands.
func TestTrustedRetriesSuspectsInOneSubBatch(t *testing.T) {
	tb := trust.New()
	tb.Disagree("shady")
	tb.Disagree("shady2")
	inner := &scriptedMatcher{picks: []transport.Addr{"shady", "clean", "shady2", "alt", "alt2"}}
	m := &match.Trusted{Inner: inner, Table: tb}
	results := m.FindRunNodes(nil, make([]grid.MatchReq, 3))
	var runs []transport.Addr
	for _, r := range results {
		runs = append(runs, r.Run)
	}
	if want := []transport.Addr{"alt", "clean", "alt2"}; !slices.Equal(runs, want) {
		t.Fatalf("runs %v, want %v", runs, want)
	}
	if inner.calls != 2 {
		t.Fatalf("the wrapped matchmaker was called %d times, want 2", inner.calls)
	}
	if got := inner.excludes[3:]; len(got) != 2 || !slices.Equal(got[0], []transport.Addr{"shady"}) || !slices.Equal(got[1], []transport.Addr{"shady2"}) {
		t.Fatalf("retry exclusions %v, want [shady] and [shady2]", got)
	}
}

// TestRNTreeBatchSpreadsPicks: a batch of 13 jobs searched from one node
// sees the same candidates, all at load 0. Each pick adds one to its
// candidate's load for the jobs after it, so the picks spread: no
// candidate gets more than its share, rounded up.
func TestRNTreeBatchSpreadsPicks(t *testing.T) {
	const jobs = 13
	r := newRig(t, 16, 6, rntree.Config{K: 4}, func(i int) resource.Vector { return resource.Vector{5, 1024, 50} })
	defer r.e.Shutdown()
	m := &match.RNTree{RN: r.rns[0]}
	r.do(0, func(rt transport.Runtime) {
		cands, _, err := r.rns[0].FindCandidates(rt, resource.Unconstrained, 4)
		if err != nil {
			t.Fatal(err)
		}
		picks := map[transport.Addr]int{}
		for i, res := range m.FindRunNodes(rt, slices.Repeat([]grid.MatchReq{{Cons: resource.Unconstrained}}, jobs)) {
			if res.Err != nil {
				t.Fatalf("job %d: %v", i, res.Err)
			}
			picks[res.Run]++
		}
		share := (jobs + len(cands) - 1) / len(cands)
		for run, n := range picks {
			if n > share {
				t.Errorf("%s got %d of %d jobs, want at most %d (%d candidates)", run, n, jobs, share, len(cands))
			}
		}
		t.Logf("%d jobs on %d candidates: %v", jobs, len(cands), picks)
	})
}
