package grid_test

import (
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/ids"
	"repro/internal/resource"
	"repro/internal/transport"
)

// fairShareOrder submits a burst of jobs from node 1 (the heavy client)
// and one job from node 2 (the light client) to a single run node, and
// returns the position of the light client's job in the start order.
func fairShareOrder(t *testing.T, fair bool) int {
	t.Helper()
	cfg := grid.Config{FairShare: fair}
	// 3 nodes: n0 is the only capable run node; n1 and n2 are clients.
	c := newCluster(t, 3, 41, cfg, func(i int) (resource.Vector, string) {
		cpu := 1.0
		if i == 0 {
			cpu = 10
		}
		return resource.Vector{cpu, 4096, 100}, "linux"
	})
	defer c.e.Shutdown()
	cons := resource.Unconstrained.Require(resource.CPU, 5)

	var lightJob ids.ID
	c.do(1, func(rt transport.Runtime) {
		for i := 0; i < 5; i++ {
			if _, err := c.nodes[1].Submit(rt, grid.JobSpec{Cons: cons, Work: 10 * time.Second}); err != nil {
				t.Fatalf("heavy submit: %v", err)
			}
		}
	})
	c.do(2, func(rt transport.Runtime) {
		// The light client arrives after the burst is queued.
		rt.Sleep(2 * time.Second)
		var err error
		lightJob, err = c.nodes[2].Submit(rt, grid.JobSpec{Cons: cons, Work: 10 * time.Second})
		if err != nil {
			t.Fatalf("light submit: %v", err)
		}
		if left := c.nodes[2].AwaitAll(rt, rt.Now()+10*time.Minute); left != 0 {
			t.Fatalf("light job unfinished")
		}
	})
	c.rec.mu.Lock()
	defer c.rec.mu.Unlock()
	pos, seen := -1, 0
	for _, ev := range c.rec.evs {
		if ev.Kind != grid.EvStarted {
			continue
		}
		seen++
		if ev.JobID == lightJob && pos < 0 {
			pos = seen
		}
	}
	return pos
}

func TestFairShareServesLightClientEarly(t *testing.T) {
	fifoPos := fairShareOrder(t, false)
	fairPos := fairShareOrder(t, true)
	// Under FIFO the light job waits behind the whole burst; under fair
	// share it runs as soon as the current job finishes.
	if fifoPos < 5 {
		t.Fatalf("FIFO started the light job at position %d; expected near the end", fifoPos)
	}
	if fairPos > 3 {
		t.Fatalf("fair share started the light job at position %d; expected near the front", fairPos)
	}
}
