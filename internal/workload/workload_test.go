package workload

import (
	"bytes"
	"math"
	"testing"
	"time"

	"repro/internal/resource"
)

func small() Config {
	c := NewConfig()
	c.Nodes = 200
	c.Jobs = 1000
	return c
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(small())
	b := Generate(small())
	if len(a.Nodes) != len(b.Nodes) || len(a.Jobs) != len(b.Jobs) {
		t.Fatal("sizes differ")
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			t.Fatalf("node %d differs", i)
		}
	}
	for i := range a.Jobs {
		if a.Jobs[i] != b.Jobs[i] {
			t.Fatalf("job %d differs", i)
		}
	}
	c := small()
	c.Seed = 2
	if Generate(c).Nodes[0] == a.Nodes[0] {
		t.Fatal("different seeds produced identical first node")
	}
}

func TestConstraintDensityMatchesPaper(t *testing.T) {
	// Lightly-constrained: average 1.2 of 3 resources; heavily: 2.4.
	for _, tc := range []struct {
		level ConstraintLevel
		want  float64
	}{{Lightly, 1.2}, {Heavily, 2.4}} {
		cfg := small()
		cfg.Level = tc.level
		w := Generate(cfg)
		total := 0
		for _, j := range w.Jobs {
			total += j.Cons.Count()
		}
		avg := float64(total) / float64(len(w.Jobs))
		if math.Abs(avg-tc.want) > 0.15 {
			t.Errorf("%s: avg constraints %.2f, want ~%.1f", tc.level, avg, tc.want)
		}
	}
}

func TestClusteredPopulationsHaveFewClasses(t *testing.T) {
	cfg := small()
	cfg.NodePop = Clustered
	cfg.JobPop = Clustered
	w := Generate(cfg)
	nodeCaps := map[resource.Vector]bool{}
	for _, n := range w.Nodes {
		nodeCaps[n.Caps] = true
	}
	if len(nodeCaps) > classes {
		t.Fatalf("%d distinct node capability vectors, want <= %d", len(nodeCaps), classes)
	}
	jobCons := map[string]bool{}
	for _, j := range w.Jobs {
		jobCons[j.Cons.String()] = true
	}
	if len(jobCons) > classes {
		t.Fatalf("%d distinct job constraint classes, want <= %d", len(jobCons), classes)
	}
}

func TestMixedPopulationsAreDiverse(t *testing.T) {
	w := Generate(small())
	caps := map[resource.Vector]bool{}
	for _, n := range w.Nodes {
		caps[n.Caps] = true
	}
	if len(caps) < len(w.Nodes)*9/10 {
		t.Fatalf("mixed nodes not diverse: %d distinct of %d", len(caps), len(w.Nodes))
	}
}

func TestEveryJobSatisfiable(t *testing.T) {
	for _, pop := range []Population{Clustered, Mixed} {
		for _, level := range []ConstraintLevel{Lightly, Heavily} {
			cfg := small()
			cfg.NodePop = pop
			cfg.JobPop = pop
			cfg.Level = level
			w := Generate(cfg)
			for i, j := range w.Jobs {
				if w.SatisfiableBy(j) == 0 {
					t.Fatalf("%s/%s: job %d (%s) unsatisfiable", pop, level, i, j.Cons)
				}
			}
		}
	}
}

func TestArrivalsPoissonish(t *testing.T) {
	w := Generate(small())
	// Arrivals strictly ordered, mean gap ~= MeanInterarrival.
	var gaps []float64
	for i := 1; i < len(w.Jobs); i++ {
		d := w.Jobs[i].Arrival - w.Jobs[i-1].Arrival
		if d < 0 {
			t.Fatal("arrivals not monotone")
		}
		gaps = append(gaps, d.Seconds())
	}
	mean := 0.0
	for _, g := range gaps {
		mean += g
	}
	mean /= float64(len(gaps))
	want := w.Config.MeanInterarrival.Seconds()
	if mean < want*0.85 || mean > want*1.15 {
		t.Fatalf("mean inter-arrival %.3fs, want ~%.3fs", mean, want)
	}
}

func TestRuntimeDistribution(t *testing.T) {
	w := Generate(small())
	mean := 0.0
	for _, j := range w.Jobs {
		r := j.Work.Seconds()
		if r < 0.5*w.Config.MeanRuntime.Seconds() || r > 1.5*w.Config.MeanRuntime.Seconds() {
			t.Fatalf("runtime %v outside [0.5,1.5]x mean", j.Work)
		}
		mean += r
	}
	mean /= float64(len(w.Jobs))
	if math.Abs(mean-w.Config.MeanRuntime.Seconds()) > 5 {
		t.Fatalf("mean runtime %.1fs, want ~%v", mean, w.Config.MeanRuntime)
	}
}

func TestClientRatesDiffer(t *testing.T) {
	w := Generate(small())
	counts := make([]int, w.Config.Clients)
	for _, j := range w.Jobs {
		counts[j.Client]++
	}
	// The highest-rate client submits several times more than the lowest.
	if counts[len(counts)-1] < counts[0]*2 {
		t.Fatalf("client rates too uniform: %v", counts)
	}
}

func TestScalePreservesLoad(t *testing.T) {
	full := NewConfig()
	scaled := full.Scale(0.1)
	if scaled.Nodes != 100 || scaled.Jobs != 500 {
		t.Fatalf("scaled to %d nodes / %d jobs", scaled.Nodes, scaled.Jobs)
	}
	wf := Generate(full)
	ws := Generate(scaled)
	lf, ls := wf.OfferedLoad(), ws.OfferedLoad()
	if math.Abs(lf-ls) > 0.25*lf {
		t.Fatalf("offered load drifted: full %.2f scaled %.2f", lf, ls)
	}
	// Degenerate scales are clamped, not zeroed.
	if c := full.Scale(0.0001); c.Nodes < 2 || c.Jobs < 1 {
		t.Fatalf("degenerate scale: %+v", c)
	}
	// Growth rungs (scale benchmarks) resize past paper scale while
	// preserving the offered load.
	grown := full.Scale(2)
	if grown.Nodes != 2000 || grown.Jobs != 10000 {
		t.Fatalf("grew to %d nodes / %d jobs", grown.Nodes, grown.Jobs)
	}
	lg := Generate(grown).OfferedLoad()
	if math.Abs(lf-lg) > 0.25*lf {
		t.Fatalf("offered load drifted on growth: full %.2f grown %.2f", lf, lg)
	}
}

func TestOfferedLoadNearOne(t *testing.T) {
	// The paper's parameters produce a heavily-loaded system.
	w := Generate(NewConfig())
	load := w.OfferedLoad()
	if load < 0.7 || load > 1.4 {
		t.Fatalf("offered load %.2f, want ~1 (heavy)", load)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	w := Generate(Config{
		Nodes: 10, Jobs: 20, Seed: 3, Clients: 2,
		MeanRuntime: time.Minute, MeanInterarrival: time.Second,
	})
	var buf bytes.Buffer
	if err := w.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Nodes) != 10 || len(got.Jobs) != 20 {
		t.Fatalf("decoded %d nodes / %d jobs", len(got.Nodes), len(got.Jobs))
	}
	if got.Jobs[5] != w.Jobs[5] {
		t.Fatalf("job 5 mismatch: %+v vs %+v", got.Jobs[5], w.Jobs[5])
	}
	if _, err := ReadJSON(bytes.NewBufferString("{bad")); err == nil {
		t.Fatal("bad JSON accepted")
	}
}

func TestStringers(t *testing.T) {
	if Clustered.String() != "clustered" || Mixed.String() != "mixed" {
		t.Fatal("population names")
	}
	if Lightly.String() != "lightly" || Heavily.String() != "heavily" {
		t.Fatal("level names")
	}
	if Lightly.Prob() != 0.4 || Heavily.Prob() != 0.8 {
		t.Fatal("constraint probabilities")
	}
}
