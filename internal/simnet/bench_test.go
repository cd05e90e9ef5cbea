package simnet

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/sim"
)

// BenchmarkRPCRoundTrip measures one simulated RPC end to end, with
// tracing off as every experiment runs: the call, the handler proc it
// spawns, and the reply that wakes the caller.
func BenchmarkRPCRoundTrip(b *testing.B) {
	e := sim.NewEngine(1)
	n := New(e)
	n.Latency = FixedLatency(10 * time.Millisecond)
	caller, server := n.NewEndpoint("a"), n.NewEndpoint("b")
	server.Handle("grid.echo", func(p *sim.Proc, from Addr, req any) (any, error) { return req, nil })
	var err error
	caller.Go("caller", func(p *sim.Proc) {
		for i := 0; i < b.N && err == nil; i++ {
			_, err = caller.Call(p, "b", "grid.echo", nil)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
	if err != nil {
		b.Fatal(err)
	}
}

// TestTraceNamesProcs checks that with tracing on, trace lines name
// each proc addr/name#seq and each request handler addr/h:method#seq,
// although the names are not built when tracing is off.
func TestTraceNamesProcs(t *testing.T) {
	e, _, a, b := newPair(t)
	var lines []string
	e.Trace = func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) }
	b.Handle("grid.echo", func(p *sim.Proc, from Addr, req any) (any, error) { return req, nil })
	a.Go("caller", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			if _, err := a.Call(p, "b", "grid.echo", i); err != nil {
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
