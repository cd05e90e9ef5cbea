// Command benchmark is the repository's one benchmark: six named
// workloads over the live TCP grid and the simulated one, the
// end-to-end metrics BENCHMARK.json bounds, and a per-layer ledger
// from a separate traced run. It measures every layer from outside,
// through public constructors, hooks and counters only. See README.md
// in this directory.
//
//	go run ./benchmark --workload live_ctrl --seed 1 --seconds 10 --trace 0
//	go run ./benchmark --compare a.jsonl b.jsonl
//	go run ./benchmark --spread a.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// metricSet maps a metric name from BENCHMARK.json to its value.
type metricSet map[string]float64

// runArgs is one invocation's input. The last three are not flags:
// they exist so the smoke test can run tiny sizes.
type runArgs struct {
	seed     int64
	seconds  float64
	trace    bool
	portBase int
	peers    int     // live: peers in the deployment
	setups   int     // live: deployments built per untraced run
	simSize  float64 // sim: multiplies an instance's nodes and jobs
}

// result is what one run reports.
type result struct {
	correct   bool
	attempted int
	failed    int
	metrics   metricSet
	notes     []string // human-readable findings, printed before the result line
}

// workloads maps each workload name in BENCHMARK.json to its runner.
var workloads = map[string]func(name string, a runArgs) (*result, error){
	"live_ctrl":    runLive,
	"live_exec":    runLive,
	"live_trickle": runLive,
	"sim_maint":    runSim,
	"sim_static":   runSim,
	"sim_chaos":    runSim,
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(argv []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "seed every input of the run derives from")
	seconds := fs.Float64("seconds", 10, "length of the measured phase")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics, traced")
	jsonOut := fs.String("json", "", "append the full result as one JSON line to this file")
	compare := fs.Bool("compare", false, "compare two --json result files (the two arguments) against the bounds")
	spread := fs.Bool("spread", false, "print each metric's median, quartiles and spread over a --json result file (the argument)")
	specPath := fs.String("spec", "BENCHMARK.json", "path of BENCHMARK.json")
	portBase := fs.Int("port-base", 17300, "first loopback port of a live deployment (peers at +0..+4, the client at +99)")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: --compare takes two result files")
			return 2
		}
		return compareFiles(spec, fs.Arg(0), fs.Arg(1))
	}
	if *spread {
		if fs.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "benchmark: --spread takes one result file")
			return 2
		}
		return spreadFile(spec, fs.Arg(0))
	}
	runner, ok := workloads[*workload]
	if !ok || !spec.hasWorkload(*workload) {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q; BENCHMARK.json names %s\n", *workload, strings.Join(spec.workloadNames(), ", "))
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: --seconds must be positive")
		return 2
	}
	a := runArgs{seed: *seed, seconds: *seconds, trace: *trace != 0, portBase: *portBase,
		peers: livePeers, setups: setupsPerRun, simSize: 1}
	res, err := runner(*workload, a)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	out, err := spec.project(res, a.trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	printTable(*workload, a, res, out)
	if *jsonOut != "" {
		if err := appendResult(*jsonOut, *workload, a, out); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	line, _ := json.Marshal(out)
	fmt.Println(string(line))
	if !res.correct {
		return 1
	}
	return 0
}

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func printTable(workload string, a runArgs, res *result, out resultLine) {
	mode := "untraced: end-to-end metrics"
	if a.trace {
		mode = "traced: per-layer metrics"
	}
	fmt.Printf("%s seed=%d seconds=%g (%s)\n", workload, a.seed, a.seconds, mode)
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-42s %16.6g %s\n", n, out.Metrics[n].Value, out.Metrics[n].Unit)
	}
	for _, note := range res.notes {
		fmt.Println("  note:", note)
	}
}
