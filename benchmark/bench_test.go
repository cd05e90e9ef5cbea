package main

import (
	"path/filepath"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/grid"
	"repro/internal/resource"
)

// The smoke test runs every workload at a tiny size. Live deployments
// take distinct port bases so the subtests can run in parallel.

func spec(t *testing.T) *benchSpec {
	t.Helper()
	s, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func tiny(portBase int, trace bool) runArgs {
	return runArgs{seed: 1, seconds: 0.4, trace: trace, portBase: portBase, peers: 3, setups: 1, simSize: 0.25}
}

// TestEveryNamedMetricIsEmitted checks BENCHMARK.json against the
// program from both sides: an untraced run of every workload yields
// every end-to-end metric, non-zero; the traced runs between them yield
// every per-layer metric; and no run yields a name the file lacks.
func TestEveryNamedMetricIsEmitted(t *testing.T) {
	t.Parallel()
	s := spec(t)
	type run struct {
		name string
		fn   func(a runArgs) (*result, error)
		a    runArgs
	}
	sim := func(name string) func(runArgs) (*result, error) {
		return func(a runArgs) (*result, error) { return runSim(name, a) }
	}
	live := func(ls liveSpec) func(runArgs) (*result, error) {
		return func(a runArgs) (*result, error) { return runLiveSpec(ls, a) }
	}
	// The three live workloads run the same code with different
	// parameters; one closed and one open loop, one of them with work,
	// cover every name a live run emits.
	closed := liveSpec{work: 0, window: 32, batch: 8}
	open := liveSpec{work: 2 * time.Millisecond, rate: 100}
	runs := []run{
		{"live closed", live(closed), tiny(18300, false)},
		{"live open traced", live(open), tiny(18500, true)},
		{"sim_maint", sim("sim_maint"), tiny(0, false)},
		{"sim_maint traced", sim("sim_maint"), tiny(0, true)},
		{"sim_static", sim("sim_static"), tiny(0, false)},
		{"sim_static traced", sim("sim_static"), tiny(0, true)},
		{"sim_chaos", sim("sim_chaos"), tiny(0, false)},
		{"sim_chaos traced", sim("sim_chaos"), tiny(0, true)},
	}
	layerSeen := make(chan string, len(runs)*len(s.PerLayer))
	t.Run("runs", func(t *testing.T) {
		for _, r := range runs {
			r := r
			t.Run(r.name, func(t *testing.T) {
				t.Parallel()
				if r.name == "sim_chaos" || r.name == "sim_chaos traced" {
					r.a.simSize = 0.5 // the plan removes up to six nodes; ten would leave too few
				}
				res, err := r.fn(r.a)
				if err != nil {
					t.Fatal(err)
				}
				if !res.correct || res.failed != 0 || res.attempted == 0 {
					t.Errorf("oracle: correct=%v failed=%d attempted=%d notes=%v", res.correct, res.failed, res.attempted, res.notes)
				}
				line, err := s.project(res, r.a.trace)
				if err != nil {
					t.Fatal(err) // a metric BENCHMARK.json does not name, or a missing end-to-end one
				}
				for name, mv := range line.Metrics {
					if mv.Unit == "" {
						t.Errorf("%s has no unit", name)
					}
					if !r.a.trace && mv.Value == 0 {
						t.Errorf("end-to-end metric %s is 0", name)
					}
				}
				if r.a.trace {
					for name := range res.metrics {
						layerSeen <- name
					}
				}
			})
		}
	})
	close(layerSeen)
	seen := map[string]bool{}
	for name := range layerSeen {
		seen[name] = true
	}
	for _, m := range s.PerLayer {
		if !seen[m.Name] {
			t.Errorf("no traced run emitted per-layer metric %s", m.Name)
		}
	}
	if len(s.workloadNames()) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the program runs %d", len(s.workloadNames()), len(workloads))
	}
	for _, w := range s.workloadNames() {
		if workloads[w] == nil {
			t.Errorf("BENCHMARK.json names workload %s, which the program does not run", w)
		}
	}
}

// TestLiveOracle plants one clean delivery, one duplicate delivery, one
// wrong digest and one dropped job, and expects the verdict to name
// each.
func TestLiveOracle(t *testing.T) {
	c, err := newLiveClient(0, time.Now(), liveInputsCons(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.host.Close()
	reqs := c.newJobs(4)
	c.stampSend(reqs)
	deliver := func(seq int, digest string) {
		res := grid.Result{JobID: grid.JobGUID(c.host.Addr(), seq, 0), OutputKB: outputKB, Digest: digest}
		if _, err := c.handleResult(nil, "", grid.ResultReq{Res: res}); err != nil {
			t.Fatal(err)
		}
	}
	good := func(seq int) string { return grid.ResultDigest(c.host.Addr(), seq, outputKB, "") }
	deliver(0, good(0))
	deliver(1, good(1))
	deliver(1, good(1)) // duplicate delivery
	deliver(2, grid.CorruptDigest(good(2), "saboteur"))
	// job 3 is dropped

	o := c.outcome()
	if o.submitted != 4 || o.exactOnce != 1 || o.duplicates != 1 || o.wrong != 1 || o.missing != 1 {
		t.Fatalf("outcome %+v", o)
	}
	res := &result{}
	res.oracle(o)
	if res.correct || res.failed != 3 || res.attempted != 4 {
		t.Fatalf("verdict correct=%v failed=%d attempted=%d, want false 3 4", res.correct, res.failed, res.attempted)
	}

	clean, err := newLiveClient(0, time.Now(), liveInputsCons(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer clean.host.Close()
	clean.stampSend(clean.newJobs(1))
	res0 := grid.Result{JobID: grid.JobGUID(clean.host.Addr(), 0, 0), OutputKB: outputKB, Digest: grid.ResultDigest(clean.host.Addr(), 0, outputKB, "")}
	if _, err := clean.handleResult(nil, "", grid.ResultReq{Res: res0}); err != nil {
		t.Fatal(err)
	}
	ok := &result{}
	ok.oracle(clean.outcome())
	if !ok.correct || ok.failed != 0 {
		t.Fatalf("a clean run was judged correct=%v failed=%d", ok.correct, ok.failed)
	}
}

func liveInputsCons(t *testing.T) []resource.Constraints {
	t.Helper()
	_, cons := liveInputs(1, 3)
	return cons
}

// TestSimOracle: an undelivered job and a wrongly accepted result both
// count as failures; surplus starts alone do not.
func TestSimOracle(t *testing.T) {
	r := instRun{res: experiments.Results{Jobs: 10, Delivered: 10, Started: 12, DupStarts: 2}}
	if n := simOracle(r); n != 0 {
		t.Errorf("clean instance: %d failures", n)
	}
	r.res.Delivered = 9
	if n := simOracle(r); n != 1 {
		t.Errorf("dropped job: %d failures, want 1", n)
	}
	r.res.Delivered, r.res.WrongAccepted = 10, 1
	if n := simOracle(r); n != 1 {
		t.Errorf("wrong digest accepted: %d failures, want 1", n)
	}
}

// TestSeedDeterminesSimulation: the same seed twice gives bit-identical
// virtual-time metrics and event counts; another seed changes them.
func TestSeedDeterminesSimulation(t *testing.T) {
	t.Parallel()
	run := func(seed int64, trace bool) metricSet {
		a := tiny(0, trace)
		a.seed = seed
		res, err := runSim("sim_static", a)
		if err != nil {
			t.Fatal(err)
		}
		if !res.correct {
			t.Fatalf("seed %d: %v", seed, res.notes)
		}
		return res.metrics
	}
	a, b, c := run(1, false), run(1, false), run(2, false)
	differs := false
	for _, name := range simExact {
		if a[name] != b[name] {
			t.Errorf("%s: %v then %v for the same seed", name, a[name], b[name])
		}
		if a[name] != c[name] {
			differs = true
		}
	}
	if !differs {
		t.Error("seed 2 gave the same virtual-time metrics as seed 1")
	}
	ta, tb, tc := run(1, true), run(1, true), run(2, true)
	if ta["sim.events_fired"] != tb["sim.events_fired"] || ta["sim.events_fired"] == 0 {
		t.Errorf("sim.events_fired: %v then %v for the same seed", ta["sim.events_fired"], tb["sim.events_fired"])
	}
	if ta["sim.events_fired"] == tc["sim.events_fired"] {
		t.Error("seed 2 fired exactly as many events as seed 1")
	}
}

func TestCompare(t *testing.T) {
	s := spec(t)
	dir := t.TempDir()
	write := func(name string, goodput float64) string {
		path := filepath.Join(dir, name)
		line := resultLine{Correct: true, Attempted: 10, Metrics: map[string]metricValue{}}
		for _, m := range s.EndToEnd {
			line.Metrics[m.Name] = metricValue{Value: 100, Unit: m.Unit}
		}
		line.Metrics["goodput_jobs_per_s"] = metricValue{Value: goodput, Unit: "jobs/s"}
		for seed := int64(1); seed <= 3; seed++ {
			if err := appendResult(path, "live_ctrl", runArgs{seed: seed, seconds: 10}, line); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("a.jsonl", 100)
	if rc := compareFiles(s, base, write("same.jsonl", 101)); rc != 0 {
		t.Errorf("1%% apart: exit %d, want 0", rc)
	}
	if rc := compareFiles(s, base, write("slow.jsonl", 50)); rc != 1 {
		t.Errorf("goodput halved: exit %d, want 1", rc)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v", q1, q3)
	}
}
