package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/grid"
	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/nettransport"
	"repro/internal/transport"
	"repro/internal/wire"
)

// benchResult is the JSON shape one bench run emits (consumed by
// scripts/live_bench.sh to assemble BENCH_live.json).
type benchResult struct {
	Batched        bool    `json:"batched"` // grid.injectbatch vs one grid.inject per job
	Jobs           int     `json:"jobs"`
	WorkMS         int64   `json:"work_ms"`
	InjectElapsedS float64 `json:"inject_elapsed_s"`
	InjectJobsPerS float64 `json:"inject_jobs_per_sec"`
	InjectP50MS    float64 `json:"inject_p50_ms"`
	InjectP99MS    float64 `json:"inject_p99_ms"`
	E2EElapsedS    float64 `json:"e2e_elapsed_s"`
	E2EJobsPerS    float64 `json:"e2e_jobs_per_sec"`
	Results        int     `json:"results"`
	Rejections     int     `json:"rejections"` // retry-after answers honored during the run
	InjectRPCs     int     `json:"inject_rpcs"`
}

// benchCmd drives a live grid at full tilt from one client and reports
// two throughput numbers: injection (submit -> owner ack, the path this
// transport work targets) and end-to-end (submit -> result delivered).
//
//	gridctl bench -node 127.0.0.1:7001 -n 200 -work 5ms -batch
func benchCmd(args []string) {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	node := fs.String("node", "127.0.0.1:7001", "injection node address")
	n := fs.Int("n", 200, "number of jobs")
	work := fs.Duration("work", 5*time.Millisecond, "per-job synthetic runtime")
	batch := fs.Bool("batch", false, "submit via grid.injectbatch instead of one grid.inject per job")
	batchMax := fs.Int("batchmax", 64, "jobs per grid.injectbatch RPC")
	timeout := fs.Duration("timeout", 5*time.Minute, "deadline for all results")
	jsonOut := fs.Bool("json", false, "emit one JSON result line on stdout")
	_ = fs.Parse(args)

	wire.RegisterAll()
	host, err := nettransport.Listen("127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(os.Stderr, "gridctl: %v\n", err)
		os.Exit(1)
	}
	defer host.Close()

	var mu sync.Mutex
	results := map[ids.ID]bool{}
	var lastResult time.Time
	gotAll := make(chan struct{})
	want := *n
	host.Handle(grid.MResult, func(rt transport.Runtime, from transport.Addr, req any) (any, error) {
		res := req.(grid.ResultReq).Res
		mu.Lock()
		if !results[res.JobID] {
			results[res.JobID] = true
			lastResult = time.Now()
			if len(results) == want {
				close(gotAll)
			}
		}
		mu.Unlock()
		return grid.ResultResp{}, nil
	})

	res := benchResult{Batched: *batch, Jobs: want, WorkMS: work.Milliseconds()}
	began := time.Now()
	benchErr := make(chan error, 1)
	host.Go("bench", func(rt transport.Runtime) {
		base := int(time.Now().UnixNano() % 1e9)
		reqs := make([]grid.InjectReq, want)
		for i := range reqs {
			reqs[i] = grid.InjectReq{Client: host.Addr(), Seq: base + i, Work: *work}
		}
		var lats []time.Duration
		var err error
		if *batch {
			lats, err = injectBatched(rt, transport.Addr(*node), reqs, *batchMax, &res)
		} else {
			lats, err = injectSingly(rt, transport.Addr(*node), reqs, &res)
		}
		if err != nil {
			benchErr <- err
			return
		}
		elapsed := time.Since(began)
		res.InjectElapsedS = elapsed.Seconds()
		res.InjectJobsPerS = float64(want) / elapsed.Seconds()
		ms := make([]float64, len(lats))
		for i, l := range lats {
			ms[i] = l.Seconds() * 1e3
		}
		res.InjectP50MS = metrics.Quantile(ms, 0.50)
		res.InjectP99MS = metrics.Quantile(ms, 0.99)
		res.InjectRPCs = len(lats)
		benchErr <- nil
	})
	if err := <-benchErr; err != nil {
		fmt.Fprintf(os.Stderr, "gridctl: bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "bench: injected %d jobs in %.3fs (%.0f jobs/s, p50 %.2fms, p99 %.2fms, %d RPCs, %d rejections)\n",
		want, res.InjectElapsedS, res.InjectJobsPerS, res.InjectP50MS, res.InjectP99MS, res.InjectRPCs, res.Rejections)

	select {
	case <-gotAll:
	case <-time.After(*timeout):
		mu.Lock()
		got := len(results)
		mu.Unlock()
		fmt.Fprintf(os.Stderr, "gridctl: bench: timeout with %d/%d results\n", got, want)
		os.Exit(1)
	}
	mu.Lock()
	res.Results = len(results)
	e2e := lastResult.Sub(began)
	mu.Unlock()
	res.E2EElapsedS = e2e.Seconds()
	res.E2EJobsPerS = float64(want) / e2e.Seconds()
	fmt.Fprintf(os.Stderr, "bench: all %d results in %.3fs end-to-end (%.0f jobs/s)\n",
		want, res.E2EElapsedS, res.E2EJobsPerS)

	if *jsonOut {
		out, _ := json.Marshal(res)
		fmt.Println(string(out))
	}
}

// injectSingly submits one grid.inject RPC per job, honoring
// backpressure retry-after hints and retrying transient failures.
func injectSingly(rt transport.Runtime, node transport.Addr, reqs []grid.InjectReq, res *benchResult) ([]time.Duration, error) {
	lats := make([]time.Duration, 0, len(reqs))
	for i := range reqs {
		var lastErr error
		ok := false
		for try := 0; try < 10 && !ok; try++ {
			t0 := time.Now()
			raw, err := rt.CallT(node, grid.MInject, reqs[i], 30*time.Second)
			lats = append(lats, time.Since(t0))
			if err != nil {
				lastErr = err
				rt.Sleep(200 * time.Millisecond)
				continue
			}
			if ra := raw.(grid.InjectResp).RetryAfterMS; ra > 0 {
				res.Rejections++
				rt.Sleep(time.Duration(ra) * time.Millisecond)
				continue
			}
			ok = true
		}
		if !ok {
			return lats, fmt.Errorf("inject %d never accepted: %v", i, lastErr)
		}
	}
	return lats, nil
}

// injectBatched submits jobs in grid.injectbatch chunks, re-batching
// rejected or failed items after honoring the largest retry-after hint.
func injectBatched(rt transport.Runtime, node transport.Addr, reqs []grid.InjectReq, batchMax int, res *benchResult) ([]time.Duration, error) {
	var lats []time.Duration
	pendingReqs := reqs
	for try := 0; try < 10 && len(pendingReqs) > 0; try++ {
		var failed []grid.InjectReq
		var maxAfter time.Duration
		for lo := 0; lo < len(pendingReqs); lo += batchMax {
			hi := lo + batchMax
			if hi > len(pendingReqs) {
				hi = len(pendingReqs)
			}
			chunk := pendingReqs[lo:hi]
			t0 := time.Now()
			raw, err := rt.CallT(node, grid.MInjectBatch, grid.InjectBatchReq{Items: chunk}, 30*time.Second)
			lats = append(lats, time.Since(t0))
			if err != nil {
				failed = append(failed, chunk...)
				if maxAfter < 200*time.Millisecond {
					maxAfter = 200 * time.Millisecond
				}
				continue
			}
			for k, r := range raw.(grid.InjectBatchResp).Results {
				if r.RetryAfterMS > 0 {
					res.Rejections++
					failed = append(failed, chunk[k])
					if a := time.Duration(r.RetryAfterMS) * time.Millisecond; a > maxAfter {
						maxAfter = a
					}
				} else if r.Err != "" {
					failed = append(failed, chunk[k])
					if maxAfter < 200*time.Millisecond {
						maxAfter = 200 * time.Millisecond
					}
				}
			}
		}
		pendingReqs = failed
		if len(pendingReqs) > 0 {
			rt.Sleep(maxAfter)
		}
	}
	if len(pendingReqs) > 0 {
		return lats, fmt.Errorf("%d jobs never accepted after retries", len(pendingReqs))
	}
	return lats, nil
}
