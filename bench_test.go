package p2pgrid

// Micro-benchmarks of the substrates: simulated Chord lookups, CAN
// routing and the kernel's proc switch. The paper's figures and tables
// come from `gridsim -exp` (the replay guard checks them), and the
// repository benchmark is `go run ./benchmark`.

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/can"
	"repro/internal/chord"
	"repro/internal/ids"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// BenchmarkChordLookup measures simulated Chord lookups on a converged
// 256-node ring (wall time per simulated lookup).
func BenchmarkChordLookup(b *testing.B) {
	e := sim.NewEngine(1)
	net := simnet.New(e)
	const N = 256
	nodes := make([]*chord.Node, N)
	hosts := make([]*simnet.Endpoint, N)
	for i := 0; i < N; i++ {
		hosts[i] = net.NewEndpoint(transport.Addr(fmt.Sprintf("n%04d", i)))
		nodes[i] = chord.New(hosts[i], chord.Config{})
	}
	chord.WarmStart(nodes)
	b.ResetTimer()
	done := false
	hosts[0].Go("bench", func(rt transport.Runtime) {
		for i := 0; i < b.N; i++ {
			src := nodes[i%N]
			if _, _, err := src.Lookup(rt, ids.HashString(fmt.Sprint(i))); err != nil {
				b.Errorf("lookup: %v", err)
				return
			}
		}
		done = true
	})
	for !done {
		e.RunFor(time.Hour)
	}
	b.StopTimer()
	e.Shutdown()
}

// BenchmarkCANRoute measures simulated CAN greedy routing on a
// converged 256-node space.
func BenchmarkCANRoute(b *testing.B) {
	e := sim.NewEngine(1)
	net := simnet.New(e)
	const N = 256
	nodes := make([]*can.Node, N)
	hosts := make([]*simnet.Endpoint, N)
	for i := 0; i < N; i++ {
		hosts[i] = net.NewEndpoint(transport.Addr(fmt.Sprintf("n%04d", i)))
		nodes[i] = can.New(hosts[i], Node{
			CPU: float64(1 + i%10), MemoryMB: float64(256 * (1 + i%8)), DiskGB: float64(10 * (1 + i%16)),
		}.caps(), "linux", can.Config{})
	}
	can.WarmStart(nodes, 0)
	b.ResetTimer()
	done := false
	hosts[0].Go("bench", func(rt transport.Runtime) {
		rng := rt.Rand()
		for i := 0; i < b.N; i++ {
			var target can.Point
			for d := range target {
				target[d] = rng.Float64()
			}
			if _, _, err := nodes[i%N].Route(rt, target); err != nil {
				b.Errorf("route: %v", err)
				return
			}
		}
		done = true
	})
	for !done {
		e.RunFor(time.Hour)
	}
	b.StopTimer()
	e.Shutdown()
}

// BenchmarkSimProcSwitch measures coroutine context-switch cost.
func BenchmarkSimProcSwitch(b *testing.B) {
	e := sim.NewEngine(1)
	e.Spawn("switcher", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	b.ResetTimer()
	e.Run()
}
