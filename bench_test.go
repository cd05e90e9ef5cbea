package p2pgrid

// Benchmark harness: one benchmark per paper figure/table (see
// DESIGN.md's per-experiment index). Each iteration runs the full
// experiment at a reduced scale and reports the headline numbers as
// custom metrics, so `go test -bench=.` regenerates every result the
// paper reports. Full paper scale: cmd/gridsim -scale 1.

import (
	"fmt"
	"strconv"
	"testing"
	"time"

	"repro/internal/can"
	"repro/internal/chord"
	"repro/internal/experiments"
	"repro/internal/ids"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/workload"
)

// benchScale keeps one iteration around a second or two; the shapes
// (who wins, by what factor) match the full-scale runs.
const benchScale = 0.04

func benchOpts(seed int64) experiments.Options {
	return experiments.Options{Scale: benchScale, Seed: seed}
}

// reportFig2 attaches each (level, algorithm) pair's wait statistics.
func reportFig2(b *testing.B, rows []experiments.Fig2Row, std bool) {
	for _, r := range rows {
		name := fmt.Sprintf("%s/%s", r.Level, r.Alg)
		if std {
			b.ReportMetric(r.WaitStd, name+"-stdev-s")
		} else {
			b.ReportMetric(r.WaitMean, name+"-avg-s")
		}
	}
}

// BenchmarkFig2a regenerates Figure 2(a): average job wait time,
// clustered workloads.
func BenchmarkFig2a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := experiments.Fig2(workload.Clustered, benchOpts(int64(i+1)))
		if i == b.N-1 {
			reportFig2(b, rows, false)
		}
	}
}

// BenchmarkFig2b regenerates Figure 2(b): stdev of job wait time,
// clustered workloads.
func BenchmarkFig2b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := experiments.Fig2(workload.Clustered, benchOpts(int64(i+1)))
		if i == b.N-1 {
			reportFig2(b, rows, true)
		}
	}
}

// BenchmarkFig2c regenerates Figure 2(c): average job wait time, mixed
// workloads — the panel with the basic-CAN load-imbalance pathology.
func BenchmarkFig2c(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := experiments.Fig2(workload.Mixed, benchOpts(int64(i+1)))
		if i == b.N-1 {
			reportFig2(b, rows, false)
		}
	}
}

// BenchmarkFig2d regenerates Figure 2(d): stdev of job wait time, mixed
// workloads.
func BenchmarkFig2d(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := experiments.Fig2(workload.Mixed, benchOpts(int64(i+1)))
		if i == b.N-1 {
			reportFig2(b, rows, true)
		}
	}
}

// BenchmarkMatchCost regenerates Table 1: matchmaking cost ("small
// number of hops") per workload quadrant.
func BenchmarkMatchCost(b *testing.B) {
	var tbl *experiments.Table
	for i := 0; i < b.N; i++ {
		tbl = experiments.MatchCost(benchOpts(int64(i + 1)))
	}
	for _, row := range tbl.Rows {
		if v, err := strconv.ParseFloat(row[3], 64); err == nil {
			b.ReportMetric(v, row[0]+"/"+row[1]+"/"+row[2]+"-msgs")
		}
	}
}

// BenchmarkCANPush regenerates Table 2: basic CAN vs load-pushing CAN
// vs the centralized baseline on the pathological quadrant.
func BenchmarkCANPush(b *testing.B) {
	var tbl *experiments.Table
	for i := 0; i < b.N; i++ {
		tbl = experiments.CANPush(benchOpts(int64(i + 1)))
	}
	for _, row := range tbl.Rows {
		if v, err := strconv.ParseFloat(row[1], 64); err == nil {
			b.ReportMetric(v, row[0]+"-avg-wait-s")
		}
		if v, err := strconv.ParseFloat(row[2], 64); err == nil {
			b.ReportMetric(v, row[0]+"-stdev-wait-s")
		}
	}
}

// BenchmarkDHTBehavior regenerates Table 3: lookup hops and maintenance
// traffic vs network size.
func BenchmarkDHTBehavior(b *testing.B) {
	var rows []experiments.DHTRow
	for i := 0; i < b.N; i++ {
		rows, _ = experiments.DHTBehavior([]int{64, 256}, experiments.Options{Seed: int64(i + 1)})
	}
	for _, r := range rows {
		b.ReportMetric(r.ChordHops, fmt.Sprintf("chord-hops-n%d", r.N))
		b.ReportMetric(r.CANHops, fmt.Sprintf("can-hops-n%d", r.N))
	}
}

// BenchmarkRobustness regenerates Table 4: job survival under churn.
func BenchmarkRobustness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.Robustness([]float64{0.15}, benchOpts(int64(i+1)))
	}
}

// BenchmarkTTLFailure regenerates Table 5: TTL search misses rare
// resources that structured matchmaking finds.
func BenchmarkTTLFailure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.TTLFailure(experiments.Options{Scale: 0.1, Seed: int64(i + 1)})
	}
}

// BenchmarkAblateVirtualDim regenerates the virtual-dimension ablation.
func BenchmarkAblateVirtualDim(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.VirtualDimAblation(benchOpts(int64(i + 1)))
	}
}

// BenchmarkAblateExtendedSearch regenerates the extended-search-k
// ablation.
func BenchmarkAblateExtendedSearch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.ExtendedSearchAblation(benchOpts(int64(i + 1)))
	}
}

// --- micro-benchmarks of the substrates ---

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

// BenchmarkSimEngine measures raw event throughput of the DES kernel.
func BenchmarkSimEngine(b *testing.B) {
	e := sim.NewEngine(1)
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
