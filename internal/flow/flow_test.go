package flow_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/flow"
	"repro/internal/grid"
)

func stage(name string, work time.Duration, after ...string) flow.Stage {
	return flow.Stage{Name: name, Spec: grid.JobSpec{Work: work}, After: after}
}

func TestValidateRejectsBadGraphs(t *testing.T) {
	cases := []struct {
		name string
		g    flow.Graph
		want error
	}{
		{"duplicate", flow.Graph{Stages: []flow.Stage{stage("a", time.Second), stage("a", time.Second)}}, flow.ErrDuplicateStage},
		{"self-dep", flow.Graph{Stages: []flow.Stage{stage("a", time.Second, "a")}}, flow.ErrSelfDep},
		{"missing", flow.Graph{Stages: []flow.Stage{stage("a", time.Second, "ghost")}}, flow.ErrUnknownDep},
		{"two-cycle", flow.Graph{Stages: []flow.Stage{
			stage("a", time.Second, "b"), stage("b", time.Second, "a"),
		}}, flow.ErrCycle},
		{"long-cycle", flow.Graph{Stages: []flow.Stage{
			stage("a", time.Second, "e"), stage("b", time.Second, "a"),
			stage("c", time.Second, "b"), stage("d", time.Second, "c"),
			stage("e", time.Second, "d"),
		}}, flow.ErrCycle},
		{"cycle-behind-valid-prefix", flow.Graph{Stages: []flow.Stage{
			stage("root", time.Second),
			stage("x", time.Second, "root", "z"), stage("y", time.Second, "x"),
			stage("z", time.Second, "y"),
		}}, flow.ErrCycle},
		{"unnamed", flow.Graph{Stages: []flow.Stage{{Spec: grid.JobSpec{Work: time.Second}}}}, nil},
	}
	for _, tc := range cases {
		_, err := tc.g.Validate()
		if err == nil {
			t.Errorf("%s: validated", tc.name)
			continue
		}
		if tc.want != nil && !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func diamond() flow.Graph {
	return flow.Graph{Name: "diamond", Stages: []flow.Stage{
		stage("merge", 4*time.Second, "left", "right"),
		stage("left", 10*time.Second, "prep"),
		stage("right", 6*time.Second, "prep"),
		stage("prep", 2*time.Second),
	}}
}

func TestValidatePlanDiamond(t *testing.T) {
	p, err := diamond().Validate()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(p.Order, " "), "prep left right merge"; got != want {
		t.Fatalf("order = %q, want %q", got, want)
	}
	if got := p.Deps["merge"]; len(got) != 2 || got[0] != "left" || got[1] != "right" {
		t.Fatalf("merge deps = %v", got)
	}
	if got := p.Dependents["prep"]; len(got) != 2 || got[0] != "left" || got[1] != "right" {
		t.Fatalf("prep dependents = %v", got)
	}
	// Critical path is the heaviest chain: prep -> left -> merge.
	if got, want := strings.Join(p.CriticalPath, " "), "prep left merge"; got != want {
		t.Fatalf("critical path = %q, want %q", got, want)
	}
	if p.CriticalWork() != 16*time.Second {
		t.Fatalf("critical work = %v", p.CriticalWork())
	}
	// Bias: prep carries all 20s of downstream work over its own 2s
	// (ratio 10 -> bias 11), left 4s/10s -> 1.4, right 4s/6s -> 1.67,
	// and the sink is unbiased.
	if got := p.Bias["prep"]; got != 11 {
		t.Fatalf("prep bias = %v", got)
	}
	if got := p.Bias["merge"]; got != 1 {
		t.Fatalf("merge bias = %v", got)
	}
	if p.Bias["left"] <= 1 || p.Bias["left"] >= p.Bias["right"] {
		t.Fatalf("fan biases left=%v right=%v", p.Bias["left"], p.Bias["right"])
	}
}

func TestValidateBiasCapAndOverride(t *testing.T) {
	// A tiny root feeding enormous downstream work hits the cap.
	g := flow.Graph{Stages: []flow.Stage{
		stage("root", time.Second),
		stage("huge", time.Hour, "root"),
	}}
	p, err := g.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if p.Bias["root"] != flow.MaxCkptBias {
		t.Fatalf("capped bias = %v, want %v", p.Bias["root"], flow.MaxCkptBias)
	}
	// An explicit Spec.CkptBias wins over the computed value.
	g.Stages[0].Spec.CkptBias = 3
	p, err = g.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if p.Bias["root"] != 3 {
		t.Fatalf("explicit bias = %v, want 3", p.Bias["root"])
	}
}

func TestParseFlowfile(t *testing.T) {
	src := `
# render pipeline
flow render
stage prep work=4s out=2
stage left after=prep work=8s out=1
stage right after=prep work=6s out=1 bias=2.5
stage merge after=left,right work=3s in=2
`
	g, err := flow.Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if g.Name != "render" || len(g.Stages) != 4 {
		t.Fatalf("parsed %q with %d stages", g.Name, len(g.Stages))
	}
	if s := g.Stages[2]; s.Name != "right" || s.Spec.Work != 6*time.Second ||
		s.Spec.OutputKB != 1 || s.Spec.CkptBias != 2.5 || len(s.After) != 1 {
		t.Fatalf("stage right = %+v", s)
	}
	if s := g.Stages[3]; len(s.After) != 2 || s.After[0] != "left" || s.Spec.InputKB != 2 {
		t.Fatalf("stage merge = %+v", s)
	}
	if _, err := g.Validate(); err != nil {
		t.Fatalf("parsed graph invalid: %v", err)
	}

	for _, bad := range []string{
		"",                         // no stages
		"stage",                    // missing name
		"stage a work=",            // bad duration
		"stage a wat=1",            // unknown option
		"orbit a",                  // unknown directive
		"flow a b\nstage x",        // malformed flow line
		"stage a after",            // option without value
		"stage a out=somethinglot", // bad int
	} {
		if _, err := flow.Parse(strings.NewReader(bad)); err == nil {
			t.Errorf("parsed %q", bad)
		}
	}
}

// FuzzParse: a flowfile is parsed and then validated, as `gridctl flow
// run` does. Neither step may panic, and a plan Validate accepts orders
// every stage once, each after all of its dependencies.
func FuzzParse(f *testing.F) {
	f.Add("flow render\nstage prep work=4s out=2\nstage left after=prep work=8s out=1\n" +
		"stage right after=prep work=6s out=1 bias=2.5\nstage merge after=left,right work=3s in=2\n")
	f.Add("stage a after=b\nstage b after=a\n")
	f.Add("stage a after=a,a")
	f.Add("stage a\nstage a")
	f.Fuzz(func(t *testing.T, src string) {
		g, err := flow.Parse(strings.NewReader(src))
		if err != nil {
			return
		}
		p, err := g.Validate()
		if err != nil {
			return
		}
		pos := make(map[string]int, len(p.Order))
		for i, name := range p.Order {
			pos[name] = i
		}
		if len(p.Order) != len(g.Stages) || len(pos) != len(g.Stages) {
			t.Fatalf("%q: order %v for %d stages", src, p.Order, len(g.Stages))
		}
		for _, s := range g.Stages {
			for _, d := range s.After {
				if pos[d] >= pos[s.Name] {
					t.Fatalf("%q: %q ordered before its dependency %q: %v", src, s.Name, d, p.Order)
				}
			}
		}
	})
}

func TestUpdateEnvelopeRoundTrip(t *testing.T) {
	u := flow.Update{Flow: "render", Stage: "merge", Kind: "delivered", Attempt: 2, At: 90 * time.Second}
	got, err := flow.DecodeUpdate(flow.EncodeUpdate(u))
	if err != nil {
		t.Fatal(err)
	}
	if got != u {
		t.Fatalf("round trip %+v != %+v", got, u)
	}
	if _, err := flow.DecodeUpdate([]byte("junk")); err == nil {
		t.Fatal("junk decoded")
	}
	if flow.FlowTopic("c1", "render") == flow.FlowTopic("c1", "other") {
		t.Fatal("topics collide")
	}
}
