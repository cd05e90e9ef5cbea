package main

import (
	"fmt"
	"time"

	"repro/internal/chord"
	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Probes time one operation of one layer in isolation, after the
// measured phase, on the deployment that just ran it. They are the
// per-operation costs the per-job counts multiply.

const (
	echoCalls   = 2000
	lookupCalls = 500
	findCalls   = 200
	mEcho       = "bench.echo"
)

// onHost runs fn as an activity of p's host and waits for it.
func onHost(p *peer, fn func(rt transport.Runtime)) {
	done := make(chan struct{})
	p.host.Go("bench.probe", func(rt transport.Runtime) {
		defer close(done)
		fn(rt)
	})
	<-done
}

// probeEcho times CallT round trips from peer 0 to a handler on peer 1
// that does nothing: framing, gob, the pooled connection and two
// goroutine hand-offs, with no protocol work.
func probeEcho(g *liveGrid) (p50, p99 float64) {
	g.peers[1].host.Handle(mEcho, func(transport.Runtime, transport.Addr, any) (any, error) {
		return chord.PingResp{}, nil
	})
	var us []float64
	onHost(g.peers[0], func(rt transport.Runtime) {
		to := g.peers[1].addr()
		for i := 0; i < echoCalls; i++ {
			t0 := time.Now()
			if _, err := rt.CallT(to, mEcho, chord.PingReq{}, 5*time.Second); err == nil {
				us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
			}
		}
	})
	return median(us), metrics.Quantile(us, 0.99)
}

// probeLookup times chord.Lookup of random keys from peer 0.
func probeLookup(g *liveGrid) float64 {
	var us []float64
	onHost(g.peers[0], func(rt transport.Runtime) {
		for i := 0; i < lookupCalls; i++ {
			key := ids.HashString(fmt.Sprintf("bench.probe/%d", i))
			t0 := time.Now()
			if _, _, err := g.peers[0].ch.Lookup(rt, key); err == nil {
				us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
			}
		}
	})
	return median(us)
}

// probeFind times rntree.FindCandidates for an unconstrained job from
// peer 0, with the node's default candidate target.
func probeFind(g *liveGrid) float64 {
	var us []float64
	onHost(g.peers[0], func(rt transport.Runtime) {
		for i := 0; i < findCalls; i++ {
			t0 := time.Now()
			if _, _, err := g.peers[0].rn.FindCandidates(rt, resource.Unconstrained, 0); err == nil {
				us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
			}
		}
	})
	return median(us)
}

// probeWire is the mean gob round trip over one zero value of every
// wire message, the codec cost each RPC pays twice.
func probeWire() float64 {
	const reps = 20
	msgs := wire.Messages()
	t0 := time.Now()
	n := 0
	for r := 0; r < reps; r++ {
		for _, m := range msgs {
			if _, err := wire.RoundTrip(m); err == nil {
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(n)
}

const kernelProbeEvents = 200_000

// probeSchedule is the simulator's cost of one bare event: schedule,
// heap, fire.
func probeSchedule() float64 {
	e := sim.NewEngine(1)
	n := 0
	var tick func()
	tick = func() {
		if n++; n < kernelProbeEvents {
			e.Schedule(time.Millisecond, tick)
		}
	}
	e.Schedule(time.Millisecond, tick)
	t0 := time.Now()
	e.Run()
	return float64(time.Since(t0).Nanoseconds()) / kernelProbeEvents
}

// probeProcSwitch is the simulator's cost of one proc sleep: an event
// plus a park and a wake of the proc's goroutine.
func probeProcSwitch() float64 {
	e := sim.NewEngine(1)
	e.Spawn("bench.switch", func(p *sim.Proc) {
		for i := 0; i < kernelProbeEvents; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	t0 := time.Now()
	e.Run()
	return float64(time.Since(t0).Nanoseconds()) / kernelProbeEvents
}
