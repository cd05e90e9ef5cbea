package grid

// White-box tests for the graceful-degradation hooks: grid.health
// pass-through and the matchmaking demotion of peers whose transport
// breaker is open (DESIGN.md §12).

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/resource"
	"repro/internal/transport"
)

func TestHandleHealthPassThrough(t *testing.T) {
	want := []transport.PeerHealth{
		{Peer: "127.0.0.1:7002", State: "open", ConsecFails: 5, Failures: 9, Opens: 1, RetryIn: time.Second},
		{Peer: "127.0.0.1:7003", State: "closed", Successes: 42},
	}
	n, _ := newStubNode(nil, Config{Health: func() []transport.PeerHealth { return want }})
	rt := &stubRT{rng: rand.New(rand.NewSource(1))}

	raw, err := n.handleHealth(rt, "asker", HealthReq{})
	if err != nil {
		t.Fatalf("handleHealth: %v", err)
	}
	resp := raw.(HealthResp)
	if resp.Node != "owner" {
		t.Fatalf("resp.Node = %q, want owner", resp.Node)
	}
	if len(resp.Peers) != 2 || resp.Peers[0] != want[0] || resp.Peers[1] != want[1] {
		t.Fatalf("resp.Peers = %+v, want %+v", resp.Peers, want)
	}

	// Without a Health hook (the simulator) the RPC still answers.
	n2, _ := newStubNode(nil, Config{})
	raw, err = n2.handleHealth(rt, "asker", HealthReq{})
	if err != nil {
		t.Fatalf("handleHealth without hook: %v", err)
	}
	if resp := raw.(HealthResp); len(resp.Peers) != 0 {
		t.Fatalf("hookless resp.Peers = %+v, want empty", resp.Peers)
	}
}

// scriptMatcher returns the first scripted candidate not excluded,
// recording each call's exclusion list.
type scriptMatcher struct {
	cands    []transport.Addr
	excluded [][]transport.Addr
}

func (m *scriptMatcher) FindRunNode(_ transport.Runtime, _ resource.Constraints, excl []transport.Addr) (transport.Addr, MatchStats, error) {
	m.excluded = append(m.excluded, append([]transport.Addr(nil), excl...))
	for _, c := range m.cands {
		skip := false
		for _, e := range excl {
			if c == e {
				skip = true
				break
			}
		}
		if !skip {
			return c, MatchStats{}, nil
		}
	}
	return "", MatchStats{}, transport.ErrUnreachable
}

// TestMatchAndAssignDemotesDown: the matcher's first pick has an open
// breaker, so matchAndAssign must exclude it from the re-pick and
// assign to the next candidate — without recording the demotion on the
// job, which would outlive the breaker.
func TestMatchAndAssignDemotesDown(t *testing.T) {
	id := ids.HashString("job")
	matcher := &scriptMatcher{cands: []transport.Addr{"down1", "good"}}
	h := &stubHost{addr: "owner"}
	n := NewNode(h, resource.Vector{4, 1024, 100}, "linux", nil, matcher, nil, Config{
		MaxRematch:      5,
		MatchRetryEvery: time.Millisecond,
		PeerDown:        func(a transport.Addr) bool { return a == "down1" },
	})
	n.owned[id] = &ownedJob{prof: Profile{ID: id, Client: "client"}}
	assigns := 0
	rt := &stubRT{rng: rand.New(rand.NewSource(1))}
	rt.call = func(to transport.Addr, method string, req any) (any, error) {
		if method != MAssign {
			t.Fatalf("unexpected RPC %s to %s", method, to)
		}
		assigns++
		if to != "good" {
			t.Fatalf("assigned to %s, want good", to)
		}
		return AssignResp{}, nil
	}

	n.matchAndAssign(rt, id)

	job := n.owned[id]
	if job == nil || !job.matched || job.run != "good" {
		t.Fatalf("job = %+v, want matched on good", job)
	}
	if assigns != 1 {
		t.Fatalf("%d assignments, want 1 (none to the demoted peer)", assigns)
	}
	if len(matcher.excluded) != 2 {
		t.Fatalf("matcher called %d times, want 2", len(matcher.excluded))
	}
	if len(matcher.excluded[1]) != 1 || matcher.excluded[1][0] != "down1" {
		t.Fatalf("re-pick exclusions = %v, want [down1]", matcher.excluded[1])
	}
	if len(job.excluded) != 0 {
		t.Fatalf("demotion leaked onto the job's exclusions: %v", job.excluded)
	}
}

func TestDemoteDownPartition(t *testing.T) {
	n, _ := newStubNode(nil, Config{
		PeerDown: func(a transport.Addr) bool { return a == "d1" || a == "d2" },
	})
	got := n.demoteDown([]transport.Addr{"d1", "a", "d2", "b"})
	want := []transport.Addr{"a", "b", "d1", "d2"}
	if len(got) != len(want) {
		t.Fatalf("demoteDown = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("demoteDown = %v, want %v (stable partition, down last)", got, want)
		}
	}

	// Nil hook (simulator): the slice is untouched, order and identity.
	n2, _ := newStubNode(nil, Config{})
	in := []transport.Addr{"x", "y"}
	if out := n2.demoteDown(in); &out[0] != &in[0] || out[1] != "y" {
		t.Fatalf("nil-hook demoteDown rewrote the slice: %v", out)
	}
}
