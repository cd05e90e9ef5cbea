// Quickstart: build a 64-peer simulated desktop grid with RN-Tree
// matchmaking, submit 100 jobs, and print the outcome. It exits 1 if
// any job is not delivered.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"os"
	"time"

	p2pgrid "repro"
)

func main() {
	cluster := p2pgrid.New(p2pgrid.Config{
		Nodes:     64,
		Algorithm: p2pgrid.RNTree,
		Seed:      42,
	})

	// 100 jobs, one per second, each ~30 s of work; a third of them
	// need a fast CPU.
	for i := 0; i < 100; i++ {
		job := p2pgrid.Job{Runtime: 30 * time.Second}
		if i%3 == 0 {
			job.MinCPU = 6
		}
		cluster.Submit(time.Duration(i)*time.Second, job)
	}

	report := cluster.Run(2 * time.Hour)

	fmt.Printf("jobs delivered:   %d/%d\n", report.Delivered, report.Submitted)
	fmt.Printf("wait time:        avg %.1fs  stdev %.1fs  p95 %.1fs\n",
		report.Wait.Mean, report.Wait.Std, report.Wait.P95)
	fmt.Printf("turnaround:       avg %.1fs\n", report.Turnaround.Mean)
	fmt.Printf("match cost:       avg %.1f overlay messages/job\n", report.MatchCost.Mean)
	fmt.Printf("network traffic:  %d messages total\n", report.Messages)

	busy := 0
	for _, n := range report.PerNodeJobs {
		if n > 0 {
			busy++
		}
	}
	fmt.Printf("load spread:      %d of %d peers ran jobs\n", busy, cluster.NodeCount())
	if report.Delivered < report.Submitted {
		os.Exit(1)
	}
}
