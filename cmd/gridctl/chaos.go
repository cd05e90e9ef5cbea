package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/faultinject"
	"repro/internal/grid"
	"repro/internal/resource"
	"repro/internal/transport"
)

// chaosResult is the JSON summary one chaos soak emits (consumed by
// scripts/live_chaos.sh).
type chaosResult struct {
	Jobs       int     `json:"jobs"`
	Delivered  int     `json:"delivered"`
	Duplicates int     `json:"duplicates"`
	Lost       int     `json:"lost"`
	Resubmits  int     `json:"resubmits"`
	ElapsedS   float64 `json:"elapsed_s"`
}

// chaosCmd runs the live chaos soak: it joins the grid as a real peer
// (with negligible capabilities, so constrained jobs never run here),
// submits jobs through the full client path — classified inject
// retries, pending registration, the resubmission monitor — and then
// asserts the robustness contract end to end: every job delivered
// exactly once, zero lost, no duplicates. The grid nodes themselves
// are expected to run under a seeded -chaos schedule; this harness can
// additionally injure its own outbound calls via -chaos/-chaos-seed.
//
//	gridctl chaos -bootstrap 127.0.0.1:7001 -n 40 -work 300ms -json
func chaosCmd(args []string) {
	fs := flag.NewFlagSet("chaos", flag.ExitOnError)
	bootstrap := fs.String("bootstrap", "127.0.0.1:7001", "grid node to join through")
	n := fs.Int("n", 40, "number of jobs")
	work := fs.Duration("work", 300*time.Millisecond, "per-job synthetic runtime")
	minCPU := fs.Float64("mincpu", 1, "CPU constraint on every job (kept above this harness's own caps so it never runs work)")
	patience := fs.Duration("patience", 5*time.Second, "client-monitor silence window before a job is resubmitted")
	timeout := fs.Duration("timeout", 3*time.Minute, "deadline for all results")
	chaosSpec := fs.String("chaos", "", "fault schedule for this client's own outbound calls ('' = off)")
	chaosSeed := fs.Int64("chaos-seed", 1, "seed for -chaos")
	jsonOut := fs.Bool("json", false, "emit one JSON result line on stdout")
	_ = fs.Parse(args)

	chaos, err := faultinject.ParseChaos(*chaosSeed, *chaosSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gridctl: chaos: -chaos: %v\n", err)
		os.Exit(2)
	}

	peer, err := joinClientPeer(*bootstrap, chaos, *patience)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gridctl: chaos: %v\n", err)
		os.Exit(1)
	}
	defer peer.host.Close()
	gn := peer.node

	res := chaosResult{Jobs: *n}
	began := time.Now()
	soakDone := make(chan int, 1)
	peer.host.Go("chaos-soak", func(rt transport.Runtime) {
		spec := grid.JobSpec{
			Work: *work,
			Cons: resource.Unconstrained.Require(resource.CPU, *minCPU),
		}
		for i := 0; i < *n; i++ {
			// Submission errors are tolerated: the pending entry is
			// registered before injection, so the monitor recovers jobs
			// whose bounded inject retries all failed under chaos. A
			// genuinely lost job surfaces as a non-zero AwaitAll below.
			_, _ = gn.Submit(rt, spec)
		}
		soakDone <- gn.AwaitAll(rt, rt.Now()+*timeout)
	})
	res.Lost = <-soakDone
	res.ElapsedS = time.Since(began).Seconds()

	// Deliveries beyond the lineages that arrived are duplicates.
	res.Delivered = peer.col.Count(grid.EvResultDelivered)
	res.Duplicates = res.Delivered - (res.Jobs - res.Lost)
	res.Resubmits = peer.col.Count(grid.EvResubmitted)

	if *jsonOut {
		b, _ := json.Marshal(res)
		fmt.Println(string(b))
	} else {
		fmt.Printf("chaos soak: %d jobs, %d delivered, %d lost, %d duplicates, %d resubmits in %.1fs\n",
			res.Jobs, res.Delivered, res.Lost, res.Duplicates, res.Resubmits, res.ElapsedS)
	}
	if err := peer.col.Check(res.Jobs); err != nil {
		fmt.Fprintf(os.Stderr, "gridctl: chaos: FAIL: %v\n", err)
		os.Exit(1)
	}
}
