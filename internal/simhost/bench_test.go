package simhost

import (
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// benchLoop runs b.N periods of a maintenance loop on one simulated
// host: each period is one call of wait.
func benchLoop(b *testing.B, wait func(rt transport.Runtime)) {
	e := sim.NewEngine(1)
	h := New(simnet.New(e).NewEndpoint("a"))
	h.Go("loop", func(rt transport.Runtime) {
		for i := 0; i < b.N; i++ {
			wait(rt)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkSleepPeriod is a period that nothing can cut short.
func BenchmarkSleepPeriod(b *testing.B) {
	benchLoop(b, func(rt transport.Runtime) { rt.Sleep(time.Millisecond) })
}

// BenchmarkWaitPeriod is the same period waited on a condition nobody
// broadcasts, as a stabilize or aggregation period on a quiet overlay
// is: it should cost what BenchmarkSleepPeriod costs.
func BenchmarkWaitPeriod(b *testing.B) {
	var mu sync.Mutex
	c := transport.Cond{L: &mu}
	benchLoop(b, func(rt transport.Runtime) {
		mu.Lock()
		defer mu.Unlock()
		rt.Wait(&c, time.Millisecond)
	})
}
