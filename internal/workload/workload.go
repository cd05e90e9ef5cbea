// Package workload generates the synthetic populations the paper's
// evaluation uses (Section 3.3): node capabilities and job constraints
// that are either clustered (a small number of equivalence classes) or
// mixed (sampled independently per node/job), jobs that are lightly or
// heavily constrained (each of the three resource types constrained
// with a fixed independent probability), Poisson job arrivals, and
// runtimes centered on a configurable mean.
package workload

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/resource"
)

// Population selects how capabilities/constraints are distributed.
type Population int

// The two population axes of the paper's problem space.
const (
	// Clustered divides nodes or jobs into a small number of
	// equivalence classes; all members of a class are identical
	// (Condor-like node pools, BOINC-like job batches).
	Clustered Population = iota
	// Mixed samples every node or job independently.
	Mixed
)

func (p Population) String() string {
	if p == Clustered {
		return "clustered"
	}
	return "mixed"
}

// ConstraintLevel selects the job constraint density.
type ConstraintLevel int

// The paper's two constraint levels: lightly-constrained jobs average
// 1.2 of the 3 resource types constrained (probability 0.4 each);
// heavily-constrained jobs average 2.4 (probability 0.8 each).
const (
	Lightly ConstraintLevel = iota
	Heavily
)

func (l ConstraintLevel) String() string {
	if l == Lightly {
		return "lightly"
	}
	return "heavily"
}

// Prob returns the per-resource constraint probability.
func (l ConstraintLevel) Prob() float64 {
	if l == Lightly {
		return 0.4
	}
	return 0.8
}

// classes is the class count of a clustered population, nodes and jobs
// alike, so round-robin anchoring gives every machine class one job
// class.
const classes = 5

// Config parameterizes generation. NewConfig supplies the paper's
// defaults: 1000 nodes, 5000 jobs, 100 s mean runtime, 0.1 s mean
// inter-arrival.
type Config struct {
	Nodes   int
	Jobs    int
	Seed    int64
	NodePop Population
	JobPop  Population
	Level   ConstraintLevel
	Clients int // distinct submitting clients

	MeanRuntime      time.Duration
	MeanInterarrival time.Duration
}

// NewConfig returns the paper-scale defaults.
func NewConfig() Config {
	return Config{
		Nodes:            1000,
		Jobs:             5000,
		Seed:             1,
		NodePop:          Mixed,
		JobPop:           Mixed,
		Level:            Lightly,
		Clients:          8,
		MeanRuntime:      100 * time.Second,
		MeanInterarrival: 100 * time.Millisecond,
	}
}

// Scale resizes a config by factor f > 0 — shrinking (f < 1) for quick
// CI runs or growing (f > 1) for scale benchmarks — preserving the
// offered load (jobs-per-node and arrival rate scale together).
func (c Config) Scale(f float64) Config {
	if f <= 0 || f == 1 {
		return c
	}
	c.Nodes = max(2, int(float64(c.Nodes)*f))
	c.Jobs = max(1, int(float64(c.Jobs)*f))
	// Fewer nodes absorb proportionally fewer jobs per second.
	c.MeanInterarrival = time.Duration(float64(c.MeanInterarrival) / f)
	return c
}

// NodeSpec describes one generated node.
type NodeSpec struct {
	Caps resource.Vector
	OS   string
	// Class is the equivalence class index (clustered populations).
	Class int
}

// JobSpec describes one generated job.
type JobSpec struct {
	Cons resource.Constraints
	// Work is the job's nominal runtime.
	Work time.Duration
	// Arrival is the submission instant relative to workload start.
	Arrival time.Duration
	// Client indexes the submitting client in [0, Config.Clients).
	Client int
	// Class is the equivalence class index (clustered populations).
	Class int
}

// Workload is a generated node and job population.
type Workload struct {
	Config Config
	Nodes  []NodeSpec
	Jobs   []JobSpec
}

// Generate builds a workload deterministically from cfg.Seed.
func Generate(cfg Config) *Workload {
	if cfg.Clients <= 0 {
		cfg.Clients = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	w := &Workload{Config: cfg}

	// --- nodes ---
	sampleCaps := func() resource.Vector {
		var v resource.Vector
		for i := range v {
			lo, hi := resource.DefaultSpace.Lo[i], resource.DefaultSpace.Hi[i]
			v[i] = lo + rng.Float64()*(hi-lo)
		}
		return v
	}
	var nodeClasses []resource.Vector
	if cfg.NodePop == Clustered {
		for i := 0; i < classes; i++ {
			nodeClasses = append(nodeClasses, sampleCaps())
		}
	}
	for i := 0; i < cfg.Nodes; i++ {
		spec := NodeSpec{OS: "linux"}
		if cfg.NodePop == Clustered {
			spec.Class = rng.Intn(len(nodeClasses))
			spec.Caps = nodeClasses[spec.Class]
		} else {
			spec.Caps = sampleCaps()
		}
		w.Nodes = append(w.Nodes, spec)
	}

	// --- jobs ---
	// Constraints are anchored at a random node so every job is
	// satisfiable by at least one node in the population.
	sampleCons := func() resource.Constraints {
		anchor := w.Nodes[rng.Intn(len(w.Nodes))].Caps
		cons := resource.Unconstrained
		p := cfg.Level.Prob()
		for t := resource.Type(0); t < resource.NumTypes; t++ {
			if rng.Float64() >= p {
				continue
			}
			lo := resource.DefaultSpace.Lo[t]
			cons = cons.Require(t, lo+rng.Float64()*(anchor[t]-lo))
		}
		return cons
	}
	// Clustered job classes anchor their requirements just below a node
	// class's capabilities, as in workloads where job batches target a
	// known machine class; their insertion points in the CAN space then
	// fall inside that class's zone stack. Classes are assigned
	// round-robin over the node classes so each machine class receives
	// its own batch stream (random anchoring would occasionally point
	// two job classes at one machine class, overloading it while other
	// classes idle — a workload artifact, not a matchmaking effect).
	var jobClasses []resource.Constraints
	if cfg.JobPop == Clustered {
		for i := 0; i < classes; i++ {
			var anchor resource.Vector
			if cfg.NodePop == Clustered {
				anchor = nodeClasses[i%len(nodeClasses)]
			} else {
				anchor = w.Nodes[rng.Intn(len(w.Nodes))].Caps
			}
			cons := resource.Unconstrained
			p := cfg.Level.Prob()
			for t := resource.Type(0); t < resource.NumTypes; t++ {
				if rng.Float64() >= p {
					continue
				}
				cons = cons.Require(t, anchor[t]*(0.9+0.1*rng.Float64()))
			}
			jobClasses = append(jobClasses, cons)
		}
	}
	// Clients submit at different average rates: client c's weight is
	// proportional to c+1.
	clientPick := func() int {
		total := cfg.Clients * (cfg.Clients + 1) / 2
		x := rng.Intn(total)
		for c := 0; c < cfg.Clients; c++ {
			x -= c + 1
			if x < 0 {
				return c
			}
		}
		return cfg.Clients - 1
	}
	var clock time.Duration
	for i := 0; i < cfg.Jobs; i++ {
		spec := JobSpec{Client: clientPick()}
		if cfg.JobPop == Clustered {
			spec.Class = rng.Intn(len(jobClasses))
			spec.Cons = jobClasses[spec.Class]
		} else {
			spec.Cons = sampleCons()
		}
		// Runtime uniform in [0.5, 1.5] x mean.
		spec.Work = time.Duration((0.5 + rng.Float64()) * float64(cfg.MeanRuntime))
		// Poisson arrivals: exponential inter-arrival gaps.
		clock += time.Duration(rng.ExpFloat64() * float64(cfg.MeanInterarrival))
		spec.Arrival = clock
		w.Jobs = append(w.Jobs, spec)
	}
	return w
}

// SatisfiableBy returns how many nodes satisfy a job's constraints —
// a diagnostic for workload hardness.
func (w *Workload) SatisfiableBy(j JobSpec) int {
	n := 0
	for _, node := range w.Nodes {
		if j.Cons.SatisfiedBy(node.Caps, node.OS) {
			n++
		}
	}
	return n
}

// Makespan returns the last arrival instant.
func (w *Workload) Makespan() time.Duration {
	if len(w.Jobs) == 0 {
		return 0
	}
	return w.Jobs[len(w.Jobs)-1].Arrival
}

// TotalWork sums all job runtimes.
func (w *Workload) TotalWork() time.Duration {
	var t time.Duration
	for _, j := range w.Jobs {
		t += j.Work
	}
	return t
}

// OfferedLoad estimates system utilization: total work divided by
// (nodes x arrival span).
func (w *Workload) OfferedLoad() float64 {
	span := w.Makespan()
	if span == 0 || len(w.Nodes) == 0 {
		return 0
	}
	return float64(w.TotalWork()) / (float64(span) * float64(len(w.Nodes)))
}

// WriteJSON serializes the workload (trace export).
func (w *Workload) WriteJSON(out io.Writer) error {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(w)
}

// ReadJSON deserializes a workload written by WriteJSON.
func ReadJSON(in io.Reader) (*Workload, error) {
	var w Workload
	if err := json.NewDecoder(in).Decode(&w); err != nil {
		return nil, fmt.Errorf("workload: decode: %w", err)
	}
	return &w, nil
}
