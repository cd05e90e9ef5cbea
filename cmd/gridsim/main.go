// Command gridsim runs the paper-reproduction experiments (see
// DESIGN.md's per-experiment index and EXPERIMENTS.md for results).
//
// Usage:
//
//	gridsim -exp fig2a            # one experiment at default scale
//	gridsim -exp all -scale 1     # full paper scale (1000 nodes, slow)
//	gridsim -exp simbench         # kernel throughput ladder -> JSON
//	gridsim -list                 # list experiment identifiers
//
// Experiments: fig2a fig2b (clustered avg/stdev), fig2c fig2d (mixed),
// tab1 (matchmaking cost), tab2 (CAN pushing), tab3 (DHT behaviour),
// tab4 (robustness/churn), tab5 (TTL misses), faultsweep (seeded
// fault injection), ckptsweep (checkpoint/resume policies),
// trustsweep (sabotage tolerance: replication/quorum/reputation),
// replsweep (owner-state replication degree under owner+run double
// crashes), notifsweep (pub/sub push notifications vs status polling),
// flowsweep (DAG checkpoint policies: workflow-aware vs adaptive),
// simbench (kernel throughput ladder, writes BENCH_sim.json),
// ablate-virtualdim, ablate-k, ablate-fair, all.
//
// Observability (DESIGN.md §14): -simstats prints the simulation
// kernel's event/switch/wall-clock report after every run, and
// -profile cpu,heap captures pprof profiles around the whole run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/workload"
)

var experimentOrder = []string{
	"fig2a", "fig2b", "fig2c", "fig2d",
	"tab1", "tab2", "tab3", "tab4", "tab5",
	"faultsweep", "ckptsweep", "trustsweep", "replsweep", "notifsweep",
	"flowsweep",
	"ablate-virtualdim", "ablate-k", "ablate-fair",
}

func main() {
	exp := flag.String("exp", "", "experiment id (see -list), or 'all'")
	scale := flag.Float64("scale", 0.1, "workload scale: 1 = paper's 1000 nodes / 5000 jobs")
	seed := flag.Int64("seed", 1, "random seed")
	verbose := flag.Bool("v", false, "progress output")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	list := flag.Bool("list", false, "list experiment identifiers")

	simstats := flag.Bool("simstats", false, "print the sim kernel's stats report after every run")
	profile := flag.String("profile", "", "comma-separated pprof profiles to capture: cpu,heap")
	profileDir := flag.String("profile-dir", ".", "directory for pprof output files")

	benchOut := flag.String("bench-out", "", "simbench: write the JSON result here (default stdout only)")
	runfile := flag.String("runfile", "", "simbench: declarative ladder runfile (keys: scales, grow, budget, alg, maintenance)")
	flag.Parse()

	if *list {
		for _, id := range experimentOrder {
			fmt.Println(id)
		}
		fmt.Println("simbench")
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "gridsim: -exp required (try -list)")
		os.Exit(2)
	}

	o := experiments.Options{Scale: *scale, Seed: *seed}
	if *verbose {
		o.Verbose = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "# "+format+"\n", args...)
		}
	}

	// Kernel observability: stats report sink.
	if *simstats {
		o.Instrument = &experiments.Instrument{
			Stats: true,
			OnStats: func(label string, st *sim.Stats) {
				fmt.Fprintf(os.Stderr, "# simstats [%s]\n%s", label, indent(st.Report(), "# "))
			},
		}
	}

	// pprof capture brackets the whole run (all requested experiments),
	// so one profile answers "where does the suite burn its time".
	stopProfiles, err := startProfiles(*profile, *profileDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gridsim: %v\n", err)
		os.Exit(1)
	}
	defer stopProfiles()

	if *exp == "simbench" {
		if err := runSimBench(o, *runfile, *benchOut, *csv); err != nil {
			fmt.Fprintf(os.Stderr, "gridsim: %v\n", err)
			stopProfiles()
			os.Exit(1)
		}
		return
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = experimentOrder
	}
	start := time.Now()
	for _, id := range ids {
		tbl, err := run(id, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gridsim: %v\n", err)
			stopProfiles()
			os.Exit(1)
		}
		if *csv {
			fmt.Print(tbl.CSV())
		} else {
			fmt.Println(tbl.Format())
		}
	}
	if *verbose {
		fmt.Fprintf(os.Stderr, "# total wall time %v\n", time.Since(start).Round(time.Millisecond))
	}
}

// runSimBench drives the kernel throughput ladder and writes the
// BENCH_sim.json payload.
func runSimBench(o experiments.Options, runfile, out string, csv bool) error {
	cfg := experiments.DefaultSimBench()
	if runfile != "" {
		data, err := os.ReadFile(runfile)
		if err != nil {
			return err
		}
		if cfg, err = experiments.ParseRunfile(string(data)); err != nil {
			return err
		}
	}
	res, tbl := experiments.SimBench(cfg, o)
	if csv {
		fmt.Print(tbl.CSV())
	} else {
		fmt.Println(tbl.Format())
	}
	if out != "" {
		blob, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "# wrote %s (%d rungs)\n", out, len(res.Rungs))
	}
	return nil
}

// startProfiles arms the requested pprof captures; the returned stop
// function is idempotent and safe on the error paths.
func startProfiles(kinds, dir string) (func(), error) {
	if kinds == "" {
		return func() {}, nil
	}
	var cpu *os.File
	heapPath := ""
	for _, kind := range strings.Split(kinds, ",") {
		switch strings.TrimSpace(kind) {
		case "cpu":
			f, err := os.Create(filepath.Join(dir, "cpu.pprof"))
			if err != nil {
				return func() {}, err
			}
			if err := pprof.StartCPUProfile(f); err != nil {
				f.Close()
				return func() {}, err
			}
			cpu = f
		case "heap":
			heapPath = filepath.Join(dir, "heap.pprof")
		case "":
		default:
			return func() {}, fmt.Errorf("-profile: unknown kind %q (want cpu,heap)", kind)
		}
	}
	done := false
	return func() {
		if done {
			return
		}
		done = true
		if cpu != nil {
			pprof.StopCPUProfile()
			cpu.Close()
			fmt.Fprintf(os.Stderr, "# wrote %s\n", cpu.Name())
		}
		if heapPath != "" {
			f, err := os.Create(heapPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "gridsim: heap profile: %v\n", err)
				return
			}
			runtime.GC() // up-to-date allocation stats
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "gridsim: heap profile: %v\n", err)
			}
			f.Close()
			fmt.Fprintf(os.Stderr, "# wrote %s\n", heapPath)
		}
	}, nil
}

// indent prefixes every non-empty line of s.
func indent(s, prefix string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = prefix + l
	}
	return strings.Join(lines, "\n") + "\n"
}

// run dispatches one experiment id to its driver. The fig2 panels share
// a driver per population: panels (a,b) are the avg/stdev columns of
// the clustered table, (c,d) of the mixed table.
func run(id string, o experiments.Options) (*experiments.Table, error) {
	switch id {
	case "fig2a", "fig2b":
		_, tbl := experiments.Fig2(workload.Clustered, o)
		tbl.Notes = append(tbl.Notes, "panel (a) is the avg-wait column; panel (b) is the stdev-wait column")
		return tbl, nil
	case "fig2c", "fig2d":
		_, tbl := experiments.Fig2(workload.Mixed, o)
		tbl.Notes = append(tbl.Notes, "panel (c) is the avg-wait column; panel (d) is the stdev-wait column")
		return tbl, nil
	case "tab1":
		return experiments.MatchCost(o), nil
	case "tab2":
		return experiments.CANPush(o), nil
	case "tab3":
		sizes := []int{64, 256, 1024}
		if o.Scale >= 1 {
			sizes = append(sizes, 4096)
		}
		_, tbl := experiments.DHTBehavior(sizes, o)
		return tbl, nil
	case "tab4":
		return experiments.Robustness(nil, o), nil
	case "tab5":
		return experiments.TTLFailure(o), nil
	case "faultsweep":
		return experiments.FaultSweep(o), nil
	case "ckptsweep":
		return experiments.CkptSweep(o), nil
	case "trustsweep":
		return experiments.TrustSweep(o), nil
	case "replsweep":
		return experiments.ReplSweep(o), nil
	case "notifsweep":
		return experiments.NotifSweep(o), nil
	case "flowsweep":
		return experiments.FlowSweep(o), nil
	case "ablate-virtualdim":
		return experiments.VirtualDimAblation(o), nil
	case "ablate-k":
		return experiments.ExtendedSearchAblation(o), nil
	case "ablate-fair":
		return experiments.FairnessAblation(o), nil
	default:
		return nil, fmt.Errorf("unknown experiment %q", id)
	}
}
