package simnet

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/transport"
)

// BenchmarkRPCRoundTrip measures one simulated RPC end to end through
// transport.Runtime, with tracing off as every experiment runs: the
// call, the handler proc it spawns, and the reply that wakes the
// caller.
func BenchmarkRPCRoundTrip(b *testing.B) {
	e := sim.NewEngine(1)
	n := New(e)
	n.Latency = FixedLatency(10 * time.Millisecond)
	caller, server := n.NewEndpoint("a"), n.NewEndpoint("b")
	server.Handle("grid.echo", func(rt transport.Runtime, from transport.Addr, req any) (any, error) { return req, nil })
	var err error
	caller.Go("caller", func(rt transport.Runtime) {
		for i := 0; i < b.N && err == nil; i++ {
			_, err = rt.Call("b", "grid.echo", nil)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
	if err != nil {
		b.Fatal(err)
	}
}

// benchLoop runs b.N periods of a maintenance loop on one simulated
// host: each period is one call of wait.
func benchLoop(b *testing.B, wait func(rt transport.Runtime)) {
	e := sim.NewEngine(1)
	New(e).NewEndpoint("a").Go("loop", func(rt transport.Runtime) {
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

// TestTraceNamesProcs checks that with tracing on, trace lines name
// each proc addr/name#seq and each request handler addr/h:method#seq,
// although the names are not built when tracing is off.
func TestTraceNamesProcs(t *testing.T) {
	e, _, a, b := newPair(t)
	var lines []string
	e.Trace = func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) }
	b.Handle("grid.echo", func(rt transport.Runtime, from transport.Addr, req any) (any, error) { return req, nil })
	a.Go("caller", func(rt transport.Runtime) {
		for i := 0; i < 2; i++ {
			if _, err := rt.Call("b", "grid.echo", i); err != nil {
				t.Error(err)
			}
		}
	})
	e.Run()
	for _, want := range []string{
		"0s start a/caller#1",
		"0s park a/caller#1",
		"10ms start b/h:grid.echo#1",
		"10ms exit b/h:grid.echo#1",
		"20ms wake a/caller#1",
		"30ms start b/h:grid.echo#2",
		"40ms exit a/caller#1",
	} {
		if !slices.Contains(lines, want) {
			t.Errorf("no trace line %q in %q", want, lines)
		}
	}
}
