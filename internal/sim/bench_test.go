package sim

import (
	"testing"
	"time"
)

// BenchmarkScheduleFire measures the pure event path — schedule, heap
// push/pop, fire — with no proc involvement: the floor for everything
// the kernel does.
func BenchmarkScheduleFire(b *testing.B) {
	e := NewEngine(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.Schedule(time.Millisecond, tick)
		}
	}
	e.Schedule(time.Millisecond, tick)
	b.ResetTimer()
	e.Run()
}

// BenchmarkProcPingPong measures the engine<->proc context-switch cost:
// each round trip is two wakes and two parks, each a coroutine switch
// plus the wake event that triggers it — the overhead an event-callback
// fast path would eliminate. The two procs pass a turn flag and wake
// each other through Await's waker.
func BenchmarkProcPingPong(b *testing.B) {
	e := NewEngine(1)
	var ping, pong *Proc
	pongsTurn := false
	ping = e.Spawn("ping", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			pongsTurn = true
			pong.Waker()()
			for pongsTurn {
				p.Await(-1)
			}
		}
	})
	pong = e.Spawn("pong", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			for !pongsTurn {
				p.Await(-1)
			}
			pongsTurn = false
			ping.Waker()()
		}
	})
	b.ResetTimer()
	e.Run()
}

// BenchmarkSpawnExit measures one proc's whole life — spawn event,
// coroutine start, return — for a proc that never draws from its random
// stream: the handler cost simnet pays on every delivered request.
func BenchmarkSpawnExit(b *testing.B) {
	e := NewEngine(1)
	n := 0
	var handler func(*Proc)
	handler = func(p *Proc) {
		n++
		if n < b.N {
			p.Spawn("handler", handler)
		}
	}
	e.Spawn("handler", handler)
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkHeapPushPopDepth measures one schedule+fire while the event
// heap holds ~10k pending timers — the regime a 10k-node simulation
// lives in, where heap depth sets the per-event log factor.
func BenchmarkHeapPushPopDepth(b *testing.B) {
	e := NewEngine(1)
	for i := 0; i < 10_000; i++ {
		e.Schedule(time.Hour+time.Duration(i)*time.Second, func() {})
	}
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.Schedule(time.Microsecond, tick)
		} else {
			// Stop instead of draining: the 10k-deep backlog must stay in
			// the heap for the whole measurement.
			e.Stop()
		}
	}
	e.Schedule(time.Microsecond, tick)
	b.ResetTimer()
	e.Run()
	b.StopTimer()
	e.Shutdown()
}
