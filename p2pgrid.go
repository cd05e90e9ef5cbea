// Package p2pgrid is a peer-to-peer desktop grid: a decentralized
// job-submission and execution system in which every peer can inject
// jobs, own and monitor them, and run jobs for others, with matchmaking
// performed over DHT overlays (Chord with a Rendezvous Node Tree, or a
// Content-Addressable Network with a virtual dimension) instead of a
// central server.
//
// It reproduces the system of Kim et al., "Creating a Robust Desktop
// Grid using Peer-to-Peer Services" (IPDPS 2007). See DESIGN.md for the
// architecture and EXPERIMENTS.md for the paper reproduction.
//
// The package front door is Cluster, a deterministic simulated grid:
//
//	c := p2pgrid.New(p2pgrid.Config{Nodes: 100, Algorithm: p2pgrid.RNTree})
//	c.Submit(0, p2pgrid.Job{Runtime: time.Minute, MinCPU: 2})
//	report := c.Run(2 * time.Hour)
//	fmt.Println(report.WaitTimes())
//
// For live TCP deployments, see cmd/gridnode and cmd/gridctl.
package p2pgrid

import (
	"fmt"
	"time"

	"repro/internal/experiments"
	"repro/internal/grid"
	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/workload"
)

// Algorithm selects the matchmaking system.
type Algorithm int

// Matchmaking algorithms. RNTree and CAN are the paper's two
// decentralized schemes; CANPush adds the load-based pushing
// improvement; Central is the omniscient baseline; TTL is the
// related-work baseline.
const (
	RNTree Algorithm = iota
	CAN
	CANPush
	Central
	TTL
)

func (a Algorithm) String() string {
	return experiments.Algorithm(a).String()
}

// Node describes one peer's resources.
type Node struct {
	CPU      float64 // relative CPU speed, 1-10
	MemoryMB float64
	DiskGB   float64
	OS       string
}

// DefaultNode is a mid-range peer.
func DefaultNode() Node {
	return Node{CPU: 5, MemoryMB: 4096, DiskGB: 100, OS: "linux"}
}

func (n Node) caps() resource.Vector {
	return resource.Vector{n.CPU, n.MemoryMB, n.DiskGB}
}

// Job describes one job to submit: its minimum resource requirements
// (zero means unconstrained) and nominal runtime.
type Job struct {
	MinCPU      float64
	MinMemoryMB float64
	MinDiskGB   float64
	OS          string // required OS, "" = any
	Runtime     time.Duration
	InputKB     int
}

func (j Job) cons() resource.Constraints {
	c := resource.Unconstrained
	if j.MinCPU > 0 {
		c = c.Require(resource.CPU, j.MinCPU)
	}
	if j.MinMemoryMB > 0 {
		c = c.Require(resource.Memory, j.MinMemoryMB)
	}
	if j.MinDiskGB > 0 {
		c = c.Require(resource.Disk, j.MinDiskGB)
	}
	if j.OS != "" {
		c = c.RequireOS(j.OS)
	}
	return c
}

// Config parameterizes a simulated cluster.
type Config struct {
	// Nodes is the peer count (default 64).
	Nodes int
	// Algorithm selects matchmaking (default RNTree).
	Algorithm Algorithm
	// Seed makes the simulation reproducible (default 1).
	Seed int64
	// NodeSpec customizes peer resources (default: heterogeneous mix).
	NodeSpec func(i int) Node
	// Maintenance runs the periodic overlay repair loops; enable it
	// when injecting failures (default off).
	Maintenance bool
	// HeartbeatEvery etc. tune the grid layer; zero values pick the
	// defaults documented in the paper reproduction.
	HeartbeatEvery time.Duration
	RunDeadAfter   time.Duration
	OwnerDeadAfter time.Duration
	// SpeedScaling divides job runtime by the run node's CPU speed.
	SpeedScaling bool
}

// JobID identifies a submitted job.
type JobID = ids.ID

// Cluster is a deterministic simulated desktop grid.
type Cluster struct {
	cfg    Config
	d      *experiments.Deployment
	nextAt []time.Duration
	subs   []submission
	ran    bool
}

type submission struct {
	at  time.Duration
	job Job
}

// New builds a cluster; jobs queue via Submit and execute during Run.
func New(cfg Config) *Cluster {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 64
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.NodeSpec == nil {
		cfg.NodeSpec = func(i int) Node {
			return Node{
				CPU:      float64(1 + i%10),
				MemoryMB: float64(256 * (1 + i%8)),
				DiskGB:   float64(10 * (1 + i%16)),
				OS:       "linux",
			}
		}
	}
	specs := make([]workload.NodeSpec, cfg.Nodes)
	for i := range specs {
		n := cfg.NodeSpec(i)
		specs[i] = workload.NodeSpec{Caps: n.caps(), OS: n.OS}
	}
	wcfg := workload.NewConfig()
	wcfg.Nodes = cfg.Nodes
	wcfg.Jobs = 0 // jobs come from Submit, not the generator
	wcfg.Seed = cfg.Seed
	d := experiments.Build(experiments.Scenario{
		Alg:         experiments.Algorithm(cfg.Algorithm),
		Workload:    wcfg,
		NetSeed:     cfg.Seed + 1000,
		Maintenance: cfg.Maintenance,
		NodeSpecs:   specs,
		Grid: grid.Config{
			HeartbeatEvery: cfg.HeartbeatEvery,
			RunDeadAfter:   cfg.RunDeadAfter,
			OwnerDeadAfter: cfg.OwnerDeadAfter,
			SpeedScaling:   cfg.SpeedScaling,
		},
	})
	return &Cluster{cfg: cfg, d: d}
}

// Submit schedules a job for injection at the given virtual instant
// (measured from simulation start). It must be called before Run.
func (c *Cluster) Submit(at time.Duration, job Job) {
	if c.ran {
		panic("p2pgrid: Submit after Run")
	}
	c.subs = append(c.subs, submission{at: at, job: job})
}

// SubmitBatch schedules n identical jobs at the given interval.
func (c *Cluster) SubmitBatch(start time.Duration, interval time.Duration, n int, job Job) {
	for i := 0; i < n; i++ {
		c.Submit(start+time.Duration(i)*interval, job)
	}
}

// Crash schedules a node failure at the given instant.
func (c *Cluster) Crash(node int, at time.Duration) {
	if node < 0 || node >= len(c.d.Hosts) {
		panic(fmt.Sprintf("p2pgrid: node %d out of range", node))
	}
	ep := c.d.Hosts[node]
	c.d.Engine.Schedule(at, func() { ep.Crash() })
}

// NodeCount returns the peer count.
func (c *Cluster) NodeCount() int { return len(c.d.Grids) }

// NodeAddr returns the overlay address of node i.
func (c *Cluster) NodeAddr(i int) string { return string(c.d.Grids[i].Addr()) }

// Report summarizes a completed run.
type Report struct {
	Submitted   int
	Delivered   int
	Wait        metrics.Summary // seconds
	Turnaround  metrics.Summary // seconds
	MatchCost   metrics.Summary // overlay messages per match
	Messages    int64
	Recoveries  int // run-node failures recovered by the owner
	Adoptions   int // owner failures recovered by run nodes
	Resubmits   int // double failures recovered by clients
	SimDuration time.Duration
	PerNodeJobs []int // jobs completed per node
}

// Run executes all submitted jobs, simulating until every result is
// delivered or the deadline passes, and returns the report. Run may be
// called once.
func (c *Cluster) Run(deadline time.Duration) Report {
	if c.ran {
		panic("p2pgrid: Run called twice")
	}
	c.ran = true
	// Submit from a client proc on node 0 at the scheduled instants.
	client := c.d.Grids[0]
	if c.cfg.Maintenance {
		client.StartClientMonitor(30 * time.Second)
	}
	subs := c.subs
	c.d.Hosts[0].Go("facade.client", func(rt transport.Runtime) {
		for _, s := range subs {
			if wait := s.at - rt.Now(); wait > 0 {
				rt.Sleep(wait)
			}
			_, _ = client.Submit(rt, grid.JobSpec{
				Cons:    s.job.cons(),
				Work:    s.job.Runtime,
				InputKB: s.job.InputKB,
			})
		}
	})
	for {
		c.d.Engine.RunFor(5 * time.Second)
		if c.d.Collector.Count(grid.EvResultDelivered) >= len(subs) {
			break
		}
		if time.Duration(c.d.Engine.Now()) >= deadline {
			break
		}
	}
	col := c.d.Collector
	rep := Report{
		Submitted:   len(subs),
		Delivered:   col.Count(grid.EvResultDelivered),
		Wait:        metrics.Summarize(col.WaitTimes()),
		Turnaround:  metrics.Summarize(col.Turnarounds()),
		MatchCost:   metrics.Summarize(col.MatchCosts()),
		Messages:    c.d.Net.Stats.Messages,
		Recoveries:  col.Count(grid.EvRunFailureDetected),
		Adoptions:   col.Count(grid.EvOwnerAdopted),
		Resubmits:   col.Count(grid.EvResubmitted),
		SimDuration: time.Duration(c.d.Engine.Now()),
	}
	for _, g := range c.d.Grids {
		rep.PerNodeJobs = append(rep.PerNodeJobs, int(g.Completed))
	}
	c.d.Engine.Shutdown()
	return rep
}

// Sim exposes the underlying engine clock (diagnostics).
func (c *Cluster) Sim() *sim.Engine { return c.d.Engine }
