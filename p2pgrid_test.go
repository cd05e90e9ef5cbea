package p2pgrid

import (
	"testing"
	"time"
)

func TestClusterQuickstart(t *testing.T) {
	c := New(Config{Nodes: 32, Algorithm: RNTree, Seed: 42})
	c.SubmitBatch(0, time.Second, 20, Job{Runtime: 30 * time.Second})
	rep := c.Run(time.Hour)
	if rep.Delivered != 20 {
		t.Fatalf("delivered %d/20", rep.Delivered)
	}
	if rep.Wait.N != 20 || rep.Wait.Mean < 0 {
		t.Fatalf("wait stats: %+v", rep.Wait)
	}
	if rep.Messages == 0 {
		t.Fatal("no network traffic recorded")
	}
}

func TestClusterAlgorithms(t *testing.T) {
	for _, alg := range []Algorithm{RNTree, CAN, CANPush, Central} {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			c := New(Config{Nodes: 24, Algorithm: alg, Seed: 7})
			c.SubmitBatch(0, 2*time.Second, 10, Job{Runtime: 20 * time.Second})
			rep := c.Run(time.Hour)
			if rep.Delivered != 10 {
				t.Fatalf("%s delivered %d/10", alg, rep.Delivered)
			}
		})
	}
}

func TestClusterConstraints(t *testing.T) {
	c := New(Config{
		Nodes: 16,
		Seed:  3,
		NodeSpec: func(i int) Node {
			n := DefaultNode()
			if i == 5 {
				n.CPU = 10
			} else {
				n.CPU = 1
			}
			return n
		},
	})
	c.Submit(0, Job{MinCPU: 8, Runtime: 10 * time.Second})
	rep := c.Run(time.Hour)
	if rep.Delivered != 1 {
		t.Fatalf("delivered %d/1", rep.Delivered)
	}
	for i, n := range rep.PerNodeJobs {
		if n > 0 && i != 5 {
			t.Fatalf("job ran on node %d, want 5", i)
		}
	}
	if rep.PerNodeJobs[5] != 1 {
		t.Fatal("node 5 did not run the job")
	}
}

func TestClusterFailureRecovery(t *testing.T) {
	c := New(Config{
		Nodes:          24,
		Algorithm:      RNTree,
		Seed:           9,
		Maintenance:    true,
		HeartbeatEvery: time.Second,
		RunDeadAfter:   4 * time.Second,
		OwnerDeadAfter: 4 * time.Second,
	})
	c.SubmitBatch(0, time.Second, 10, Job{Runtime: 60 * time.Second})
	// Crash a third of the nodes (not node 0, the client) mid-run.
	for i := 1; i <= 8; i++ {
		c.Crash(i*2, 30*time.Second)
	}
	rep := c.Run(4 * time.Hour)
	if rep.Delivered != 10 {
		t.Fatalf("delivered %d/10 after crashes (recoveries=%d adoptions=%d resubmits=%d)",
			rep.Delivered, rep.Recoveries, rep.Adoptions, rep.Resubmits)
	}
}

func TestClusterMisuse(t *testing.T) {
	c := New(Config{Nodes: 4})
	c.Submit(0, Job{Runtime: time.Second})
	_ = c.Run(time.Minute)
	mustPanic(t, func() { c.Run(time.Minute) })
	mustPanic(t, func() { c.Submit(0, Job{}) })
	c2 := New(Config{Nodes: 4})
	mustPanic(t, func() { c2.Crash(99, 0) })
}

func TestJobConstraintMapping(t *testing.T) {
	j := Job{MinCPU: 2, MinMemoryMB: 512, OS: "linux"}
	cons := j.cons()
	if cons.Count() != 2 || cons.OS != "linux" {
		t.Fatalf("cons = %s", cons)
	}
	if (Job{}).cons().Count() != 0 {
		t.Fatal("empty job should be unconstrained")
	}
}

func TestSpeedScalingFacade(t *testing.T) {
	c := New(Config{
		Nodes:        8,
		Seed:         5,
		SpeedScaling: true,
		NodeSpec:     func(i int) Node { n := DefaultNode(); n.CPU = 10; return n },
	})
	c.Submit(0, Job{Runtime: 100 * time.Second})
	rep := c.Run(time.Hour)
	if rep.Delivered != 1 {
		t.Fatal("not delivered")
	}
	// 100s of work at speed 10 completes in ~10s, so turnaround must be
	// far below 100s.
	if rep.Turnaround.Mean > 60 {
		t.Fatalf("turnaround %.1fs suggests no speed scaling", rep.Turnaround.Mean)
	}
}

func mustPanic(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fn()
}
