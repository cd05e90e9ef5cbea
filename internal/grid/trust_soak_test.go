package grid_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/grid"
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
// event trace for replay comparison. The oracle's digest rule is the
// sabotage check: every delivery must carry the honest expectation.
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
	trace, col := soak{c: c, patience: 15 * time.Second, deadline: 15 * time.Minute,
		spec: func(i int) grid.JobSpec {
			return grid.JobSpec{Work: time.Duration(2+i%4) * time.Second, OutputKB: 1 + i}
		},
		tag: fmt.Sprintf(" saboteurs=%v", byz.Saboteurs()),
	}.run(t, seed)
	if votes, accepted := col.Count(grid.EvVoted), col.Count(grid.EvAccepted); votes < soakJobs*2 || accepted < soakJobs {
		t.Fatalf("seed %d: voting not exercised (votes=%d accepted=%d)", seed, votes, accepted)
	}
	return trace
}

func TestByzantineSoak(t *testing.T) {
	for seed := int64(1); seed <= seeds(40, 10); seed++ {
		runByzSoak(t, seed)
	}
}

// TestByzantineSoakReplayDeterministic: saboteur selection and every
// corruption decision are pure functions of the seed, so a replayed
// schedule must produce a byte-identical event trace — including the
// voting digests and reputation deltas the trace lines carry.
func TestByzantineSoakReplayDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		sameTrace(t, fmt.Sprintf("seed %d replay", seed), runByzSoak(t, seed), runByzSoak(t, seed))
	}
}
