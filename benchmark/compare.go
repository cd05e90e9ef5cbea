package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// savedResult is one line of a --json result file.
type savedResult struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    int     `json:"trace"`
	resultLine
	// Claim is always null: this program measures, it claims nothing.
	Claim *string `json:"claim"`
}

func appendResult(path, workload string, a runArgs, out resultLine) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	trace := 0
	if a.trace {
		trace = 1
	}
	line, err := json.Marshal(savedResult{Workload: workload, Seed: a.seed, Seconds: a.seconds, Trace: trace, resultLine: out})
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readResults loads a result file; an empty one is an error, because
// every caller would otherwise report agreement over nothing.
func readResults(path string) ([]savedResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []savedResult
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r savedResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no results", path)
	}
	return out, nil
}

// simExact are the end-to-end metrics that are pure functions of the
// seed on the simulated workloads (virtual time and counts): two runs
// of the same code and seed must agree on them to the last bit.
var simExact = []string{
	"turnaround_p50_ms", "turnaround_p95_ms", "turnaround_mean_ms",
	"match_msgs_per_job", "net_msgs_per_job", "starts_per_job",
}

// compareFiles checks two sets of untraced results against the bounds
// of BENCHMARK.json, workload by workload and metric by metric, on the
// medians of each set. It returns 1 when any median differs by more
// than its bound in either direction, when a simulated workload's
// deterministic metrics differ at all for a seed both sets ran, or when
// a run in either set failed its oracle.
func compareFiles(spec *benchSpec, pathA, pathB string) int {
	a, err := readResults(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	b, err := readResults(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	group := func(rs []savedResult) map[string][]savedResult {
		g := map[string][]savedResult{}
		for _, r := range rs {
			if r.Trace == 0 {
				g[r.Workload] = append(g[r.Workload], r)
			}
		}
		return g
	}
	ga, gb := group(a), group(b)
	bad := 0
	fmt.Printf("%-13s %-22s %14s %14s %9s %7s\n", "workload", "metric", "median A", "median B", "B vs A", "bound")
	for _, w := range spec.workloadNames() {
		ra, rb := ga[w], gb[w]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, r := range append(append([]savedResult(nil), ra...), rb...) {
			if !r.Correct {
				fmt.Printf("%-13s seed %d failed its oracle (%d of %d)\n", w, r.Seed, r.Failed, r.Attempted)
				bad++
			}
		}
		for _, sm := range spec.EndToEnd {
			ma, mb := median(values(ra, sm.Name)), median(values(rb, sm.Name))
			rel := 0.0
			if ma != 0 {
				rel = (mb - ma) / ma
			}
			verdict := ""
			if rel > sm.Bound || rel < -sm.Bound {
				verdict = " DIFFERS"
				if (rel > 0) == (sm.Better == "lower") {
					verdict += " (worse)"
				} else {
					verdict += " (better)"
				}
				bad++
			}
			fmt.Printf("%-13s %-22s %14.6g %14.6g %+8.1f%% %6.0f%%%s\n", w, sm.Name, ma, mb, rel*100, sm.Bound*100, verdict)
		}
		if strings.HasPrefix(w, "sim_") {
			bad += compareExact(w, ra, rb)
		}
	}
	if bad > 0 {
		fmt.Printf("%d disagreements beyond the bounds\n", bad)
		return 1
	}
	fmt.Println("the two sets agree within the bounds")
	return 0
}

func values(rs []savedResult, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// compareExact reports, for every seed both sets ran on a simulated
// workload, any deterministic metric that is not bit-identical.
func compareExact(w string, ra, rb []savedResult) int {
	bySeed := map[int64]savedResult{}
	for _, r := range ra {
		bySeed[r.Seed] = r
	}
	bad := 0
	for _, r := range rb {
		x, ok := bySeed[r.Seed]
		if !ok || x.Seconds != r.Seconds {
			continue
		}
		for _, name := range simExact {
			if x.Metrics[name].Value != r.Metrics[name].Value {
				fmt.Printf("%-13s seed %d: %s is %v in A and %v in B, must be identical\n", w, r.Seed, name, x.Metrics[name].Value, r.Metrics[name].Value)
				bad++
			}
		}
	}
	return bad
}

// spreadFile prints, for every workload in a result file and every
// end-to-end metric, the median and quartiles over the file's untraced
// runs and the spread the contract judges: the distance between the
// quartiles as a share of the median. It flags a spread beyond a third
// of the metric's bound, the margin the bounds were chosen with.
func spreadFile(spec *benchSpec, path string) int {
	rs, err := readResults(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	wide := 0
	fmt.Printf("%-13s %-22s %4s %13s %13s %13s %8s %6s\n", "workload", "metric", "runs", "q1", "median", "q3", "spread", "bound")
	for _, w := range spec.workloadNames() {
		var runs []savedResult
		for _, r := range rs {
			if r.Workload == w && r.Trace == 0 {
				runs = append(runs, r)
			}
		}
		if len(runs) < 2 {
			continue
		}
		for _, sm := range spec.EndToEnd {
			vals := values(runs, sm.Name)
			q1, q3 := quartiles(vals)
			med := median(vals)
			spread := ratio(q3-q1, med)
			flag := ""
			if sm.Name != "setup_s" && spread > sm.Bound/3 {
				flag = " WIDE"
				wide++
			}
			fmt.Printf("%-13s %-22s %4d %13.6g %13.6g %13.6g %7.2f%% %5.0f%%%s\n", w, sm.Name, len(vals), q1, med, q3, spread*100, sm.Bound*100, flag)
		}
	}
	if wide > 0 {
		fmt.Printf("%d spreads beyond a third of their bound\n", wide)
		return 1
	}
	return 0
}
