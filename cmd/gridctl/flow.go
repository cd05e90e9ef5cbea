package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/flow"
	"repro/internal/grid"
	"repro/internal/nettransport"
	"repro/internal/resource"
	"repro/internal/transport"
)

// flowResult is the JSON summary one workflow run emits (consumed by
// scripts/live_flow.sh).
type flowResult struct {
	Flow       string  `json:"flow"`
	Stages     int     `json:"stages"`
	Delivered  int     `json:"delivered"`
	Duplicates int     `json:"duplicates"`
	Resubmits  int     `json:"resubmits"`
	ElapsedS   float64 `json:"elapsed_s"`
}

// flowCmd runs a declarative workflow file against a live grid:
//
//	gridctl flow run -bootstrap 127.0.0.1:7001 pipeline.flow
//
// The file names stages and their dependencies (see internal/flow's
// Parse for the format); this harness joins the grid as a real client
// peer and hands the DAG to the same engine the simulator uses —
// ready stages submit in batches, each stage's input is the bundle of
// its dependencies' delivered outputs, and the client monitor recovers
// stages whose lineage dies mid-flight. Exit status asserts the DAG
// contract: every stage delivered exactly once.
func flowCmd(args []string) {
	if len(args) < 1 || args[0] != "run" {
		fmt.Fprintln(os.Stderr, "usage: gridctl flow run [-bootstrap addr] <file>")
		os.Exit(2)
	}
	fs := flag.NewFlagSet("flow run", flag.ExitOnError)
	bootstrap := fs.String("bootstrap", "127.0.0.1:7001", "grid node to join through")
	minCPU := fs.Float64("mincpu", 1, "CPU constraint stamped on every stage (kept above this harness's own caps so it never runs work)")
	patience := fs.Duration("patience", 5*time.Second, "client-monitor silence window before a stage is resubmitted")
	timeout := fs.Duration("timeout", 3*time.Minute, "deadline for the whole workflow")
	jsonOut := fs.Bool("json", false, "emit one JSON result line on stdout")
	_ = fs.Parse(args[1:])
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: gridctl flow run [-bootstrap addr] <file>")
		os.Exit(2)
	}

	f, err := os.Open(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "gridctl: flow: %v\n", err)
		os.Exit(2)
	}
	g, err := flow.Parse(f)
	f.Close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "gridctl: flow: %v\n", err)
		os.Exit(2)
	}
	if *minCPU > 0 {
		for i := range g.Stages {
			g.Stages[i].Spec.Cons = resource.Unconstrained.Require(resource.CPU, *minCPU)
		}
	}
	plan, err := g.Validate()
	if err != nil {
		fmt.Fprintf(os.Stderr, "gridctl: flow: %v\n", err)
		os.Exit(2)
	}

	peer, err := joinClientPeer(*bootstrap, nettransport.Opts{}, *patience)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gridctl: flow: %v\n", err)
		os.Exit(1)
	}
	defer peer.host.Close()

	began := time.Now()
	runDone := make(chan error, 1)
	var results map[string]flow.StageResult
	peer.host.Go("flow-run", func(rt transport.Runtime) {
		var ferr error
		results, ferr = flow.RunPlan(rt, peer.node, plan, flow.Options{
			Deadline: rt.Now() + *timeout,
			OnStage: func(sr flow.StageResult) {
				fmt.Printf("stage %-12s job=%s a%d elapsed=%v out=%dB\n",
					sr.Name, sr.JobID.Short(), sr.Attempt,
					(sr.Finished - sr.Started).Round(time.Millisecond), len(sr.Output))
			},
		})
		runDone <- ferr
	})
	ferr := <-runDone

	res := flowResult{Flow: g.Name, Stages: len(plan.Order), Delivered: len(results), ElapsedS: time.Since(began).Seconds()}
	res.Duplicates = peer.col.Count(grid.EvResultDelivered) - len(results)
	res.Resubmits = peer.col.Count(grid.EvResubmitted)

	if *jsonOut {
		b, _ := json.Marshal(res)
		fmt.Println(string(b))
	} else {
		fmt.Printf("flow %s: %d/%d stages delivered, %d duplicates, %d resubmits in %.1fs\n",
			res.Flow, res.Delivered, res.Stages, res.Duplicates, res.Resubmits, res.ElapsedS)
	}
	if ferr != nil {
		fmt.Fprintf(os.Stderr, "gridctl: flow: %v\n", ferr)
		os.Exit(1)
	}
	if err := peer.col.Check(res.Stages); err != nil {
		fmt.Fprintf(os.Stderr, "gridctl: flow: FAIL: %v\n", err)
		os.Exit(1)
	}
}
