package grid

// White-box tests for the graceful-degradation hooks: grid.health
// pass-through and the matchmaking demotion of peers whose transport
// breaker is open (DESIGN.md §12).

import (
	"math/rand"
	"slices"
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

// scriptMatcher gives each job the first scripted candidate it does not
// exclude, recording each job's exclusion list.
type scriptMatcher struct {
	cands    []transport.Addr
	excluded [][]transport.Addr
}

func (m *scriptMatcher) FindRunNodes(_ transport.Runtime, reqs []MatchReq) []MatchResult {
	results := make([]MatchResult, len(reqs))
	for i, r := range reqs {
		m.excluded = append(m.excluded, slices.Clone(r.Exclude))
		results[i].Err = transport.ErrUnreachable
		for _, c := range m.cands {
			if !slices.Contains(r.Exclude, c) {
				results[i] = MatchResult{Run: c}
				break
			}
		}
	}
	return results
}

// TestMatchAndAssignDemotesDown: the matcher's first pick has an open
// breaker, so the placement loop must exclude it from the re-pick and
// assign to the next candidate — without recording the demotion on the
// job, which would outlive the breaker. The voting filler takes the
// same step for each replica it recruits.
func TestMatchAndAssignDemotesDown(t *testing.T) {
	for _, tc := range []struct {
		name     string
		replicas int
		want     []transport.Addr // the run nodes assigned, in order
	}{
		{name: "plain", want: []transport.Addr{"good"}},
		{name: "voting", replicas: 2, want: []transport.Addr{"good", "good2"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			id := ids.HashString("job")
			matcher := &scriptMatcher{cands: []transport.Addr{"down1", "good", "good2"}}
			h := &stubHost{addr: "owner"}
			n := NewNode(h, resource.Vector{4, 1024, 100}, "linux", nil, matcher, nil, Config{
				MaxRematch:      5,
				MatchRetryEvery: time.Millisecond,
				Replicas:        tc.replicas,
				Quorum:          tc.replicas,
				PeerDown:        func(a transport.Addr) bool { return a == "down1" },
			})
			job := &ownedJob{prof: Profile{ID: id, Client: "client"}}
			if tc.replicas > 1 {
				job.vote = newVoteState()
			}
			n.owned[id] = job
			var assigned []transport.Addr
			rt := &stubRT{rng: rand.New(rand.NewSource(1))}
			rt.call = func(to transport.Addr, method string, req any) (any, error) {
				if method != MAssign {
					t.Fatalf("unexpected RPC %s to %s", method, to)
				}
				if to == "down1" {
					t.Fatalf("assigned to %s, whose breaker is open", to)
				}
				assigned = append(assigned, to)
				return AssignResp{}, nil
			}

			if job.vote != nil {
				n.fillReplicas(rt, id)
			} else {
				n.matchAndAssign(rt, []ids.ID{id})
			}

			if !slices.Equal(assigned, tc.want) {
				t.Fatalf("assigned to %v, want %v (none to the demoted peer)", assigned, tc.want)
			}
			if job.vote != nil {
				if len(job.vote.reps) != len(tc.want) {
					t.Fatalf("%d replicas recorded, want %d", len(job.vote.reps), len(tc.want))
				}
			} else if !job.matched || job.run != "good" {
				t.Fatalf("job = %+v, want matched on good", job)
			}
			if len(matcher.excluded) != len(tc.want)+1 {
				t.Fatalf("matcher called %d times, want %d", len(matcher.excluded), len(tc.want)+1)
			}
			if len(matcher.excluded[1]) != 1 || matcher.excluded[1][0] != "down1" {
				t.Fatalf("re-pick exclusions = %v, want [down1]", matcher.excluded[1])
			}
			if len(job.excluded) != 0 {
				t.Fatalf("demotion leaked onto the job's exclusions: %v", job.excluded)
			}
		})
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
