// Astronomy: the paper's motivating workload — a parameter sweep of
// N-body gravity simulations (habitable-planet searches, asteroid
// binary formation) farmed out to a heterogeneous desktop grid.
//
// Each sweep point is one independent, CPU-bound, low-I/O job; the
// bigger configurations need more memory and a faster CPU. The example
// runs the same campaign under all three matchmakers and compares job
// wait times, mirroring how the paper's astronomers would choose a
// configuration. It exits 1 if any matchmaker leaves a job undelivered.
//
//	go run ./examples/astronomy
package main

import (
	"fmt"
	"os"
	"time"

	p2pgrid "repro"
)

// sweepPoint is one simulation configuration in the campaign.
type sweepPoint struct {
	bodies int
	steps  int
}

// cost estimates runtime: direct-summation N-body is O(bodies^2) per
// step. Calibrated so the largest point takes ~6 simulated minutes.
func (p sweepPoint) cost() time.Duration {
	return time.Duration(float64(p.bodies*p.bodies*p.steps) / 4e4 * float64(time.Second))
}

// job maps a sweep point to grid requirements: big runs need memory
// for particle state and a fast CPU to finish within the campaign.
func (p sweepPoint) job() p2pgrid.Job {
	j := p2pgrid.Job{Runtime: p.cost(), InputKB: 2 + p.bodies/128}
	if p.bodies >= 1024 {
		j.MinMemoryMB = 2048
		j.MinCPU = 5
	} else if p.bodies >= 512 {
		j.MinMemoryMB = 1024
	}
	return j
}

func main() {
	// The campaign: bodies x integration-steps grid, 72 jobs.
	var sweep []sweepPoint
	for _, bodies := range []int{128, 256, 512, 1024} {
		for _, steps := range []int{20, 40, 60} {
			for rep := 0; rep < 6; rep++ {
				sweep = append(sweep, sweepPoint{bodies: bodies, steps: steps})
			}
		}
	}

	fmt.Printf("campaign: %d N-body simulations\n\n", len(sweep))
	fmt.Printf("%-10s %10s %12s %12s %12s\n", "algorithm", "delivered", "avg-wait(s)", "p95-wait(s)", "msgs/match")

	lost := false
	for _, alg := range []p2pgrid.Algorithm{p2pgrid.RNTree, p2pgrid.CANPush, p2pgrid.Central} {
		cluster := p2pgrid.New(p2pgrid.Config{
			Nodes:     200,
			Algorithm: alg,
			Seed:      7,
			NodeSpec: func(i int) p2pgrid.Node {
				// A volunteer population: mostly modest desktops, some
				// lab workstations with lots of memory and fast CPUs.
				n := p2pgrid.Node{CPU: float64(1 + i%6), MemoryMB: 512, DiskGB: 40, OS: "linux"}
				if i%5 == 0 {
					n.MemoryMB = 4096
					n.CPU = float64(5 + i%5)
				}
				return n
			},
		})
		// Submissions arrive in a burst, 2 s apart, as a sweep script
		// would generate them.
		for i, p := range sweep {
			cluster.Submit(time.Duration(i)*2*time.Second, p.job())
		}
		rep := cluster.Run(6 * time.Hour)
		fmt.Printf("%-10s %6d/%3d %12.1f %12.1f %12.1f\n",
			alg, rep.Delivered, rep.Submitted, rep.Wait.Mean, rep.Wait.P95, rep.MatchCost.Mean)
		lost = lost || rep.Delivered < rep.Submitted
	}

	fmt.Println("\nEvery matchmaker must route the 1024-body runs to the")
	fmt.Println("big-memory workstations; the interesting difference is how")
	fmt.Println("evenly the small runs spread across the modest desktops.")
	if lost {
		os.Exit(1)
	}
}
