package grid_test

import (
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/transport"
)

// TestOwnerBackpressureNoLostJobs floods a grid whose owners accept at
// most a couple of jobs at a time. Every submission beyond capacity is
// rejected with a retry-after hint rather than queued without bound,
// and the client's honor-the-hint retry loop (plus the monitor as the
// last resort) must still land every job: rejections shed load, they
// never lose work. Obs is on so the rejection path is in the
// trace-stage/event count check too.
func TestOwnerBackpressureNoLostJobs(t *testing.T) {
	cfg, o := obsSoakCfg(grid.Config{OwnerCapacity: 2})
	c := newCluster(t, 6, 11, cfg, uniform)
	defer c.e.Shutdown()
	c.nodes[0].StartClientMonitor(10 * time.Second)
	const J = 24
	c.do(0, func(rt transport.Runtime) {
		for i := 0; i < J; i++ {
			// Errors are tolerated here: a submission whose bounded
			// retries all hit capacity is still registered and will be
			// resubmitted by the monitor. Lost jobs show up below as a
			// non-zero AwaitAll.
			_, _ = c.nodes[0].Submit(rt, grid.JobSpec{Work: 2 * time.Second})
		}
		if left := c.nodes[0].AwaitAll(rt, rt.Now()+15*time.Minute); left != 0 {
			t.Fatalf("%d jobs lost under backpressure", left)
		}
	})
	if got := c.rec.count(grid.EvResultDelivered); got != J {
		t.Fatalf("%d results, want %d", got, J)
	}
	// The flood must actually have tripped the bound, or this test
	// proved nothing.
	if c.rec.count(grid.EvInjectRejected) == 0 {
		t.Fatal("no inject-rejected events: capacity bound never engaged")
	}
	assertStagesMatchEvents(t, 11, o)
}

// TestSubmitAllBatched pushes a batch through the grouped
// grid.ownbatch handoff and checks every job completes exactly once.
func TestSubmitAllBatched(t *testing.T) {
	c := newCluster(t, 8, 12, grid.Config{}, uniform)
	defer c.e.Shutdown()
	const J = 30
	c.do(0, func(rt transport.Runtime) {
		specs := make([]grid.JobSpec, J)
		for i := range specs {
			specs[i] = grid.JobSpec{Work: time.Second}
		}
		ids, err := c.nodes[0].SubmitAll(rt, specs)
		if err != nil {
			t.Fatalf("submit all: %v", err)
		}
		if len(ids) != J {
			t.Fatalf("%d ids, want %d", len(ids), J)
		}
		seen := map[string]bool{}
		for _, id := range ids {
			if seen[id.String()] {
				t.Fatalf("duplicate GUID %s in batch", id.Short())
			}
			seen[id.String()] = true
		}
		if left := c.nodes[0].AwaitAll(rt, rt.Now()+10*time.Minute); left != 0 {
			t.Fatalf("%d jobs unfinished", left)
		}
	})
	if got := c.rec.count(grid.EvResultDelivered); got != J {
		t.Fatalf("%d results, want %d", got, J)
	}
}

// TestSubmitAllWithBackpressure combines the batched path with tight
// owner capacity: per-item retry-after results must be honored and
// retried without losing batch-mates that were accepted.
func TestSubmitAllWithBackpressure(t *testing.T) {
	cfg := grid.Config{OwnerCapacity: 3}
	c := newCluster(t, 6, 13, cfg, uniform)
	defer c.e.Shutdown()
	c.nodes[0].StartClientMonitor(10 * time.Second)
	const J = 18
	c.do(0, func(rt transport.Runtime) {
		specs := make([]grid.JobSpec, J)
		for i := range specs {
			specs[i] = grid.JobSpec{Work: 2 * time.Second}
		}
		_, _ = c.nodes[0].SubmitAll(rt, specs) // monitor recovers exhausted retries
		if left := c.nodes[0].AwaitAll(rt, rt.Now()+15*time.Minute); left != 0 {
			t.Fatalf("%d jobs lost under batched backpressure", left)
		}
	})
	if got := c.rec.count(grid.EvResultDelivered); got != J {
		t.Fatalf("%d results, want %d", got, J)
	}
}

// TestSubmitIsBatchOfOne: Submit and a one-element SubmitAll are the
// same call. Two identically seeded clusters, tight enough on owner
// capacity that the retry-after path and its jitter draws run, must
// record byte-identical event traces when driven either way at the same
// instants.
func TestSubmitIsBatchOfOne(t *testing.T) {
	run := func(submit func(n *grid.Node, rt transport.Runtime, spec grid.JobSpec)) []string {
		c := newCluster(t, 6, 15, grid.Config{OwnerCapacity: 2}, uniform)
		defer c.e.Shutdown()
		c.nodes[0].StartClientMonitor(10 * time.Second)
		const J = 16
		c.do(0, func(rt transport.Runtime) {
			for i := 0; i < J; i++ {
				submit(c.nodes[0], rt, grid.JobSpec{Work: time.Duration(1+i%3) * time.Second})
				rt.Sleep(100 * time.Millisecond)
			}
			if left := c.nodes[0].AwaitAll(rt, rt.Now()+15*time.Minute); left != 0 {
				t.Fatalf("%d jobs unfinished", left)
			}
		})
		if c.rec.count(grid.EvInjectRejected) == 0 {
			t.Fatal("capacity bound never engaged: the retry path was not compared")
		}
		return eventTrace(c.rec)
	}
	single := run(func(n *grid.Node, rt transport.Runtime, spec grid.JobSpec) {
		_, _ = n.Submit(rt, spec)
	})
	batched := run(func(n *grid.Node, rt transport.Runtime, spec grid.JobSpec) {
		_, _ = n.SubmitAll(rt, []grid.JobSpec{spec})
	})
	if len(single) != len(batched) {
		t.Fatalf("Submit recorded %d events, one-element SubmitAll %d", len(single), len(batched))
	}
	for i := range single {
		if single[i] != batched[i] {
			t.Fatalf("traces diverge at event %d:\n  Submit:    %s\n  SubmitAll: %s", i, single[i], batched[i])
		}
	}
}
