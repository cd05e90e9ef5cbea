// Churn: demonstrates the paper's robustness machinery (Section 2).
// Long jobs run while a third of the grid crashes mid-execution; owners
// detect dead run nodes by heartbeat timeout and rematch, run nodes
// detect dead owners and have the job adopted by the new DHT owner, and
// clients resubmit jobs whose owner and run node both vanished. It
// exits 1 if any job is not delivered.
//
//	go run ./examples/churn
package main

import (
	"fmt"
	"os"
	"time"

	p2pgrid "repro"
)

func main() {
	cluster := p2pgrid.New(p2pgrid.Config{
		Nodes:          48,
		Algorithm:      p2pgrid.RNTree,
		Seed:           11,
		Maintenance:    true, // overlay repair loops on: we will need them
		HeartbeatEvery: time.Second,
		RunDeadAfter:   5 * time.Second,
		OwnerDeadAfter: 5 * time.Second,
	})

	const jobs = 30
	for i := 0; i < jobs; i++ {
		cluster.Submit(time.Duration(i)*2*time.Second, p2pgrid.Job{
			Runtime: 2 * time.Minute,
		})
	}

	// Crash 16 of the 48 peers (never node 0, the submitting client)
	// while the jobs are in flight.
	crashed := 0
	for i := 1; i < cluster.NodeCount() && crashed < 16; i += 3 {
		cluster.Crash(i, time.Duration(30+crashed*5)*time.Second)
		crashed++
	}
	fmt.Printf("submitting %d two-minute jobs, then crashing %d of %d peers\n\n",
		jobs, crashed, cluster.NodeCount())

	report := cluster.Run(6 * time.Hour)

	fmt.Printf("delivered:          %d/%d\n", report.Delivered, report.Submitted)
	fmt.Printf("run-node failures:  %d detected by owners (job rematched)\n", report.Recoveries)
	fmt.Printf("owner adoptions:    %d (run node found the new DHT owner)\n", report.Adoptions)
	fmt.Printf("client resubmits:   %d (owner and run node both lost)\n", report.Resubmits)
	fmt.Printf("avg turnaround:     %.1fs (the 120s of work plus recovery delays)\n", report.Turnaround.Mean)

	if report.Delivered == report.Submitted {
		fmt.Println("\nall jobs survived the churn — no central server required")
	} else {
		fmt.Printf("\n%d jobs missed the drain deadline\n", report.Submitted-report.Delivered)
		os.Exit(1)
	}
}
