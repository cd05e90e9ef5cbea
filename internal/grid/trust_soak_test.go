package grid_test

import (
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/grid"
	"repro/internal/ids"
	"repro/internal/transport"
	"repro/internal/trust"
)

// The Byzantine soak drives the full voting stack against active
// saboteurs: a seeded quarter of the nodes corrupt result digests or
// withhold results entirely. With R=3/quorum=2 and non-colluding
// corruption (every saboteur's wrong digest is distinct), the honest
// majority must win every vote — so the soak asserts the sabotage-
// tolerance analogue of the recovery soak's exactly-once claim: every
// job terminates exactly once at the client AND every delivered digest
// matches the honest expectation recorded at submission.

const (
	byzNodes  = 8 // node 7 is the client and is protected
	byzClient = byzNodes - 1
	byzJobs   = 8
)

func byzSoakCfg() func(i int, byz *faultinject.Byz) grid.Config {
	return func(i int, byz *faultinject.Byz) grid.Config {
		cfg := soakCfg()
		cfg.Replicas = 3
		cfg.Quorum = 2
		cfg.Trust = trust.New()
		cfg.Byzantine = byz.Behavior(i)
		return cfg
	}
}

// runByzSoak executes one seeded Byzantine schedule and returns the
// event trace for replay comparison.
func runByzSoak(t *testing.T, seed int64) []string {
	t.Helper()
	byz := faultinject.GenerateByz(seed, byzNodes, faultinject.ByzPlan{
		Fraction:     0.25,
		WrongProb:    0.7,
		WithholdProb: 0.2,
		Protect:      []int{byzClient},
	})
	if len(byz.Saboteurs()) == 0 {
		t.Fatalf("seed %d: no saboteurs generated", seed)
	}
	cfgFor := byzSoakCfg()
	c := newClusterCfg(t, byzNodes, seed, func(i int) grid.Config { return cfgFor(i, byz) }, uniform)
	defer c.e.Shutdown()
	c.nodes[byzClient].StartClientMonitor(15 * time.Second)

	c.do(byzClient, func(rt transport.Runtime) {
		for i := 0; i < byzJobs; i++ {
			if _, err := c.nodes[byzClient].Submit(rt, grid.JobSpec{Work: time.Duration(2+i%4) * time.Second, OutputKB: 1 + i}); err != nil {
				t.Fatalf("seed %d: submit %d: %v", seed, i, err)
			}
		}
	})

	deadline := c.e.Now().Add(15 * time.Minute)
	for c.e.Now() < deadline && c.nodes[byzClient].PendingCount() > 0 {
		c.e.RunFor(5 * time.Second)
	}
	if left := c.nodes[byzClient].PendingCount(); left != 0 {
		t.Fatalf("seed %d: %d of %d jobs never terminated (saboteurs=%v)",
			seed, left, byzJobs, byz.Saboteurs())
	}

	// Exactly once, and never a sabotaged result: each delivery's digest
	// must equal the expectation its submission recorded.
	c.rec.mu.Lock()
	expect := map[ids.ID]string{}
	delivered := map[ids.ID]int{}
	total, votes, accepted := 0, 0, 0
	for _, ev := range c.rec.evs {
		switch ev.Kind {
		case grid.EvSubmitted:
			expect[ev.JobID] = ev.Digest
		case grid.EvResultDelivered:
			delivered[ev.JobID]++
			total++
			if want := expect[ev.JobID]; want == "" || ev.Digest != want {
				t.Errorf("seed %d: job %s delivered digest %s, want %s (sabotage accepted)",
					seed, ev.JobID.Short(), ev.Digest, want)
			}
		case grid.EvVoted:
			votes++
		case grid.EvAccepted:
			accepted++
		}
	}
	c.rec.mu.Unlock()
	for id, n := range delivered {
		if n > 1 {
			t.Fatalf("seed %d: job %s delivered %d times", seed, id.Short(), n)
		}
	}
	if total != byzJobs {
		t.Fatalf("seed %d: %d results delivered, want %d", seed, total, byzJobs)
	}
	if votes < byzJobs*2 || accepted < byzJobs {
		t.Fatalf("seed %d: voting not exercised (votes=%d accepted=%d)", seed, votes, accepted)
	}
	return eventTrace(c.rec)
}

func TestByzantineSoak(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 10
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		runByzSoak(t, seed)
	}
}

// TestByzantineSoakReplayDeterministic: saboteur selection and every
// corruption decision are pure functions of the seed, so a replayed
// schedule must produce a byte-identical event trace — including the
// voting digests and reputation deltas the trace lines carry.
func TestByzantineSoakReplayDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		a := runByzSoak(t, seed)
		b := runByzSoak(t, seed)
		if len(a) != len(b) {
			t.Fatalf("seed %d: replay produced %d events, first run %d", seed, len(b), len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: traces diverge at event %d:\n  first:  %s\n  replay: %s", seed, i, a[i], b[i])
			}
		}
	}
}
