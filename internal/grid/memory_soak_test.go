package grid_test

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/match"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// TestSoakRunNodeMemoryFlat pushes 10k zero-work jobs through three
// simulated nodes and asserts that what the grid retains does not grow
// with the number of jobs it has finished: between job 1k and job 10k
// the retained heap grows by less than 8 B per job. A set of every job
// a run node ever finished (the run node's former done map) costs 40 B
// per job over that stretch and fails; without it the growth is about
// 1 B per job. The client is a bare endpoint that counts results and
// keeps nothing per job, so the grid's own state is what is measured.
// Once the soak drains, the nodes must hold no more procs than before
// it: nothing a finished job started may outlive it.
func TestSoakRunNodeMemoryFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	const (
		total   = 10_000
		warm    = 1_000
		batch   = 50
		perJobB = 8
	)
	e := sim.NewEngine(1)
	defer e.Shutdown()
	net := simnet.New(e)
	net.Latency = simnet.UniformLatency{Min: 5 * time.Millisecond, Max: 20 * time.Millisecond}
	reg := match.NewRegistry()
	overlay := &switchableOverlay{}
	var nodes []transport.Addr
	var eps []*simnet.Endpoint
	for i := 0; i < 3; i++ {
		h := net.NewEndpoint(transport.Addr([]string{"n0", "n1", "n2"}[i]))
		cv, os := uniform(i)
		gn := grid.NewNode(h, cv, os, overlay, &match.Central{Reg: reg}, nil, grid.Config{})
		overlay.owners = append(overlay.owners, h)
		reg.Register(h.Addr(), match.RegistryEntry{Caps: cv, OS: os, Load: gn.QueueLen, Up: h.Up})
		gn.Start()
		nodes = append(nodes, h.Addr())
		eps = append(eps, h)
	}
	procs := func() int {
		n := 0
		for _, ep := range eps {
			n += ep.Procs()
		}
		return n
	}
	procsBefore := procs()

	client := net.NewEndpoint("client")
	delivered := 0
	client.Handle(grid.MResult, func(rt transport.Runtime, from transport.Addr, req any) (any, error) {
		delivered++
		return grid.ResultResp{}, nil
	})
	submitted := 0
	submit := func(n int) {
		client.Go("submit", func(rt transport.Runtime) {
			reqs := make([]grid.InjectReq, n)
			for i := range reqs {
				reqs[i] = grid.InjectReq{Client: client.Addr(), Seq: submitted + i}
			}
			submitted += n
			if _, err := rt.Call(nodes[submitted%len(nodes)], grid.MInjectBatch, grid.InjectBatchReq{Items: reqs}); err != nil {
				t.Errorf("inject: %v", err)
			}
		})
		for start := e.Now(); delivered < submitted; e.RunFor(100 * time.Millisecond) {
			if e.Now()-start > sim.Time(time.Minute) {
				t.Fatalf("%d of %d jobs delivered after a minute", delivered, submitted)
			}
		}
		e.RunFor(5 * time.Second) // heartbeats and completions settle
	}
	retained := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}

	for submitted < warm {
		submit(batch)
	}
	before := retained()
	for submitted < total {
		submit(batch)
	}
	after := retained()
	if delivered != total {
		t.Fatalf("%d results for %d jobs", delivered, total)
	}
	// Each finished job's grid.report activity and the handlers it
	// called must have exited once the soak drains.
	if got := procs(); got > procsBefore {
		t.Fatalf("nodes hold %d procs after the soak drained, %d before it", got, procsBefore)
	}
	growth := (float64(after) - float64(before)) / (total - warm)
	t.Logf("retained heap %d -> %d bytes: %.1f B per job", before, after, growth)
	if growth >= perJobB {
		t.Fatalf("retained heap grew %.1f B per finished job (bound %d)", growth, perJobB)
	}
}
