package faultinject

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/transport"
)

func TestRuleMatching(t *testing.T) {
	cases := []struct {
		rule     Rule
		method   string
		response bool
		want     bool
	}{
		{Rule{}, "grid.heartbeat", false, true},
		{Rule{}, "grid.heartbeat", true, true},
		{Rule{Method: "grid.heartbeat"}, "grid.heartbeat", false, true},
		{Rule{Method: "grid.heartbeat"}, "grid.complete", false, false},
		{Rule{Requests: true}, "x", false, true},
		{Rule{Requests: true}, "x", true, false},
		{Rule{Responses: true}, "x", true, true},
		{Rule{Responses: true}, "x", false, false},
		{Rule{Method: "m", Responses: true}, "m", false, false},
	}
	for i, c := range cases {
		if got := c.rule.matches(c.method, c.response); got != c.want {
			t.Errorf("case %d: matches(%q, %v) = %v, want %v", i, c.method, c.response, got, c.want)
		}
	}
}

func TestKeyedFirstMatchWins(t *testing.T) {
	in := NewKeyed(1,
		Rule{Method: "a", DropProb: 1},
		Rule{DelayProb: 1, DelayMin: time.Second, DelayMax: time.Second},
	)
	if f := in.Fate("x", "y", "a", false); !f.Drop {
		t.Fatalf("method rule not applied: %+v", f)
	}
	f := in.Fate("x", "y", "b", false)
	if f.Drop || f.Delay != time.Second {
		t.Fatalf("catch-all delay rule not applied: %+v", f)
	}
}

// TestFateIndependentOfOtherLayers is what keyed draws are for: one
// injector sees a run's grid messages, a second with the same seed sees
// the same grid messages with chord traffic interleaved, as one extra
// Chord ping per stabilize round would add. A catch-all rule makes every
// chord message draw too, yet each grid message keeps its fate.
func TestFateIndependentOfOtherLayers(t *testing.T) {
	rules := []Rule{
		{Method: "grid.heartbeat", DropProb: 0.3},
		{Method: "grid.assign", DupProb: 0.2, ResetProb: 0.1},
		{DelayProb: 0.2, DelayMin: 100 * time.Millisecond, DelayMax: time.Second},
	}
	type msg struct {
		from, to transport.Addr
		method   string
		response bool
	}
	var grid []msg
	for i := 0; i < 400; i++ {
		from, to := transport.Addr(fmt.Sprintf("n%d", i%5)), transport.Addr(fmt.Sprintf("n%d", (i*3+1)%5))
		method := []string{"grid.heartbeat", "grid.assign", "grid.result"}[i%3]
		grid = append(grid, msg{from, to, method, i%4 == 3})
	}
	plain, mixed := NewKeyed(5, rules...), NewKeyed(5, rules...)
	faults := 0
	for i, m := range grid {
		if i%2 == 0 {
			mixed.Fate(m.from, m.to, "chord.ping", false)
			mixed.Fate(m.to, m.from, "chord.ping", true)
		}
		if i%7 == 0 {
			mixed.Fate(m.from, m.to, "chord.findsucc", m.response)
		}
		want := plain.Fate(m.from, m.to, m.method, m.response)
		if got := mixed.Fate(m.from, m.to, m.method, m.response); got != want {
			t.Fatalf("grid message %d (%+v): fate %+v alone, %+v with chord traffic interleaved", i, m, want, got)
		}
		if want != (transport.Fault{}) {
			faults++
		}
	}
	if faults == 0 {
		t.Fatal("400 grid messages drew no fault: the test proves nothing")
	}
}

// TestFateKeyFields: each field of the key, and the seed, names its
// own sequence of fates.
func TestFateKeyFields(t *testing.T) {
	rule := Rule{DropProb: 0.5}
	seq := func(seed int64, from, to transport.Addr, method string, response bool) (out [64]bool) {
		k := NewKeyed(seed, rule)
		for i := range out {
			out[i] = k.Fate(from, to, method, response).Drop
		}
		return out
	}
	base := seq(1, "a", "b", "m", false)
	if base != seq(1, "a", "b", "m", false) {
		t.Fatal("the same key and seed drew different fates")
	}
	for name, other := range map[string][64]bool{
		"seed":   seq(2, "a", "b", "m", false),
		"from":   seq(1, "c", "b", "m", false),
		"to":     seq(1, "a", "c", "m", false),
		"method": seq(1, "a", "b", "n", false),
		"leg":    seq(1, "a", "b", "m", true),
	} {
		if other == base {
			t.Errorf("another %s drew the same 64 fates", name)
		}
	}
}

// BenchmarkFate is the injector's cost per message on a key already
// seen: a map lookup and a few multiplies, no formatting and no
// allocation.
func BenchmarkFate(b *testing.B) {
	k := NewKeyed(1,
		Rule{Method: "grid.heartbeat", DropProb: 0.25},
		Rule{DupProb: 0.2, DelayProb: 0.2, DelayMin: 100 * time.Millisecond, DelayMax: time.Second})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.Fate("n001", "n002", "grid.assign", i%2 == 0)
	}
}

// TestChaosFateDeterministic is the replay contract: the same seed and
// rules draw the identical fate sequence for a key, and a different
// seed draws a different one.
func TestChaosFateDeterministic(t *testing.T) {
	const N = 300
	seq := func(seed int64) []transport.Fault {
		k := keyedFor(t, seed, "refuse=0.2 reset=0.2 drop=0.1 dup=0.2 delay=0.2:100ms:1s")
		out := make([]transport.Fault, N)
		for i := range out {
			out[i] = k.Fate("me", "127.0.0.1:9999", "grid.assign", false)
		}
		return out
	}
	runA, runB, other := seq(7), seq(7), seq(8)
	faults := 0
	for i := range runA {
		if runA[i] != runB[i] {
			t.Fatalf("draw %d: seed 7 gave %+v then %+v — schedule not deterministic", i, runA[i], runB[i])
		}
		if runA[i] != (transport.Fault{}) {
			faults++
		}
	}
	if faults == 0 {
		t.Fatal("300 draws at ~60% fault mass injected nothing")
	}
	if reflect.DeepEqual(runA, other) {
		t.Fatal("seeds 7 and 8 drew identical fate sequences")
	}
}

// TestChaosFateIndependentOfInterleaving checks that two pairs' draw
// sequences don't perturb each other: interleaving calls to a second
// peer leaves the first peer's sequence unchanged.
func TestChaosFateIndependentOfInterleaving(t *testing.T) {
	solo := keyedFor(t, 3, "refuse=0.3 reset=0.3")
	mixed := keyedFor(t, 3, "refuse=0.3 reset=0.3")
	var want, got []transport.Fault
	for i := 0; i < 100; i++ {
		want = append(want, solo.Fate("me", "p1", "m", false))
	}
	for i := 0; i < 100; i++ {
		mixed.Fate("me", "p2", "m", false) // interleaved traffic to another peer
		got = append(got, mixed.Fate("me", "p1", "m", false))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("draw %d for p1: %+v solo vs %+v interleaved", i, want[i], got[i])
		}
	}
}

// TestChaosRuleMethodMustBeHandled is the check gridnode and gridctl
// chaos apply to their -chaos rules: a rule scoped to a method nobody
// registered would match no call and inject nothing.
func TestChaosRuleMethodMustBeHandled(t *testing.T) {
	handles := func(m string) bool { return m == "echo" }
	for _, c := range []struct {
		spec string
		ok   bool
	}{
		{"", true}, // no injector
		{"method=echo refuse=0.5; drop=0.1", true},
		{"method=echo refuse=0.5; method=grid.nosuch reset=1", false},
		{"method=* drop=1", false}, // no wildcard: "*" is a method name
	} {
		if err := keyedFor(t, 1, c.spec).CheckServed(handles); (err == nil) != c.ok {
			t.Errorf("CheckServed(%q) = %v, want ok=%v", c.spec, err, c.ok)
		}
	}
}

func keyedFor(t *testing.T, seed int64, spec string) *Keyed {
	t.Helper()
	k, err := ParseChaos(seed, spec)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// FuzzParseRules: the spec is operator input from a flag. The parser
// never panics, and every rule it accepts has probabilities in [0, 1]
// and a delay range with MIN <= MAX.
func FuzzParseRules(f *testing.F) {
	for _, seed := range []string{
		"method=grid.assign reset=0.15; drop=0.03",
		"delay=0.2:100ms:1s dup=0.2",
		"delay=0.25:400ms refuse=1",
		"drop=NaN", "delay=1:2s:1s", "delay=0.5:-1s", ";;", "method=",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		rules, err := ParseRules(spec)
		if err != nil {
			return
		}
		for _, r := range rules {
			for _, p := range []float64{r.DropProb, r.DupProb, r.DelayProb, r.RefuseProb, r.ResetProb} {
				if !(p >= 0 && p <= 1) {
					t.Fatalf("ParseRules(%q) accepted probability %v: %+v", spec, p, r)
				}
			}
			if r.DelayMin > r.DelayMax {
				t.Fatalf("ParseRules(%q) accepted delay min %v > max %v", spec, r.DelayMin, r.DelayMax)
			}
		}
	})
}

func TestGenerateDeterministicAndProtects(t *testing.T) {
	plan := Plan{
		Nodes:           10,
		Protect:         []int{0, 9},
		Window:          time.Minute,
		Crashes:         5,
		RestartProb:     0.5,
		RestartDelayMin: time.Second,
		RestartDelayMax: 10 * time.Second,
		Partitions:      3,
		PartitionSize:   3,
		PartitionDurMin: time.Second,
		PartitionDurMax: 20 * time.Second,
	}
	a, b := Generate(5, plan), Generate(5, plan)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	if len(a.Nodes) < plan.Crashes {
		t.Fatalf("only %d node events for %d crashes", len(a.Nodes), plan.Crashes)
	}
	if len(a.Parts) != plan.Partitions {
		t.Fatalf("%d partitions, want %d", len(a.Parts), plan.Partitions)
	}
	for _, ev := range a.Nodes {
		if ev.Node == 0 || ev.Node == 9 {
			t.Fatalf("protected node %d scheduled for crash/restart", ev.Node)
		}
		if !ev.Restart && ev.At > plan.Window {
			t.Fatalf("crash at %v outside window %v", ev.At, plan.Window)
		}
	}
	for _, p := range a.Parts {
		if p.Heal <= p.From {
			t.Fatalf("partition heals (%v) before it forms (%v)", p.Heal, p.From)
		}
		if len(p.Group) != plan.PartitionSize {
			t.Fatalf("partition group size %d, want %d", len(p.Group), plan.PartitionSize)
		}
		for _, n := range p.Group {
			if n == 0 || n == 9 {
				t.Fatalf("protected node %d partitioned", n)
			}
		}
	}
	// Different seeds diverge (with overwhelming probability).
	if c := Generate(6, plan); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestGenerateAllProtected(t *testing.T) {
	s := Generate(1, Plan{Nodes: 2, Protect: []int{0, 1}, Crashes: 3, Partitions: 2, Window: time.Minute})
	if len(s.Nodes) != 0 || len(s.Parts) != 0 {
		t.Fatalf("events scheduled with no eligible nodes: %+v", s)
	}
}

type fakeHarness struct {
	crashes, restarts []int
}

func (h *fakeHarness) Crash(i int)   { h.crashes = append(h.crashes, i) }
func (h *fakeHarness) Restart(i int) { h.restarts = append(h.restarts, i) }

func TestArmFiresEventsAndDisarms(t *testing.T) {
	e := sim.NewEngine(1)
	net := simnet.New(e)
	addrOf := func(i int) transport.Addr { return transport.Addr(fmt.Sprintf("n%d", i)) }
	s := Schedule{
		Nodes: []NodeEvent{
			{At: time.Second, Node: 1},
			{At: 2 * time.Second, Node: 1, Restart: true},
			{At: 10 * time.Second, Node: 2},
		},
		Parts: []Partition{{From: time.Second, Heal: 3 * time.Second, Group: []int{1, 2}}},
	}
	s.Seed, s.Rules, s.RuleWindow = 9, []Rule{{DropProb: 0.5}}, 2*time.Second
	h := &fakeHarness{}
	disarm := s.Arm(e, net, h, addrOf)

	// The installed injector is keyed by the schedule's seed and rules
	// alone, however many draws generating the schedule took.
	want := NewKeyed(s.Seed+1, s.Rules...)
	for i := 0; i < 100; i++ {
		if got, want := net.Faults.Fate("x", "y", "m", false), want.Fate("x", "y", "m", false); got != want {
			t.Fatalf("draw %d: armed injector gave %+v, a Keyed of seed %d gave %+v", i, got, s.Seed+1, want)
		}
	}

	e.RunFor(1500 * time.Millisecond)
	if len(h.crashes) != 1 || h.crashes[0] != 1 {
		t.Fatalf("crashes after 1.5s: %v", h.crashes)
	}
	// Partition active: group nodes reach each other but not outsiders.
	if !net.Reachable(addrOf(1), addrOf(2)) || net.Reachable(addrOf(1), addrOf(0)) {
		t.Fatal("partition predicate wrong while active")
	}
	e.RunFor(2 * time.Second) // now at 3.5s: restart fired, partition healed
	if len(h.restarts) != 1 || h.restarts[0] != 1 {
		t.Fatalf("restarts after 3.5s: %v", h.restarts)
	}
	if !net.Reachable(addrOf(1), addrOf(0)) {
		t.Fatal("partition did not heal")
	}
	if net.Faults != nil {
		t.Fatal("injector still installed after the rule window")
	}

	disarm()
	e.RunFor(time.Minute)
	if len(h.crashes) != 1 {
		t.Fatalf("disarmed event still fired: %v", h.crashes)
	}

	// Disarming inside the rule window removes the injector as well.
	disarm = Schedule{Rules: s.Rules, RuleWindow: time.Hour}.Arm(e, net, h, addrOf)
	if net.Faults == nil {
		t.Fatal("a schedule with rules installed no injector")
	}
	disarm()
	if net.Faults != nil {
		t.Fatal("disarm left the injector installed")
	}
}

func TestGenerateByzDeterministicAndProtected(t *testing.T) {
	p := ByzPlan{Fraction: 0.3, WrongProb: 0.7, WithholdProb: 0.1, Protect: []int{9}}
	a := GenerateByz(42, 10, p)
	b := GenerateByz(42, 10, p)
	got, want := fmt.Sprint(a.Saboteurs()), fmt.Sprint(b.Saboteurs())
	if got != want {
		t.Fatalf("same seed differs: %s vs %s", got, want)
	}
	// 9 eligible * 0.3 rounds to 3 saboteurs; the protected index never
	// sabotages.
	if len(a.Saboteurs()) != 3 {
		t.Fatalf("saboteurs = %v, want 3 of them", a.Saboteurs())
	}
	if a.Saboteur(9) {
		t.Fatal("protected node selected as saboteur")
	}
	if a.Behavior(9) != nil {
		t.Fatal("protected node must have nil behavior")
	}
	c := GenerateByz(43, 10, p)
	if fmt.Sprint(c.Saboteurs()) == got {
		t.Logf("seeds 42 and 43 picked the same set (possible but unlikely): %s", got)
	}
}

func TestByzBehaviorHashStable(t *testing.T) {
	p := ByzPlan{Fraction: 1, WrongProb: 0.5, WithholdProb: 0.5}
	b := GenerateByz(7, 4, p)
	beh := b.Behavior(2)
	if beh == nil {
		t.Fatal("fraction 1 must make every node a saboteur")
	}
	job := ids.HashString("job-x")
	w1, h1 := beh(job, 0)
	w2, h2 := beh(job, 0)
	if w1 != w2 || h1 != h2 {
		t.Fatal("behavior draw must be pure in (job, attempt)")
	}
	if w1 && h1 {
		t.Fatal("wrong and withhold are mutually exclusive")
	}
	// Different attempts should be able to draw differently; scan a few
	// jobs to confirm both outcomes occur at these probabilities.
	var wrongs, holds int
	for i := 0; i < 200; i++ {
		w, h := beh(ids.HashString(fmt.Sprintf("job-%d", i)), 0)
		if w {
			wrongs++
		}
		if h {
			holds++
		}
	}
	if wrongs < 60 || wrongs > 140 || holds < 10 {
		t.Fatalf("draw distribution off: wrongs=%d holds=%d of 200", wrongs, holds)
	}
}

func TestGeneratePairCrashes(t *testing.T) {
	plan := Plan{
		Nodes:           10,
		Protect:         []int{0},
		Window:          time.Minute,
		PairCrashes:     4,
		RestartProb:     1,
		RestartDelayMin: time.Second,
		RestartDelayMax: 5 * time.Second,
	}
	a, b := Generate(11, plan), Generate(11, plan)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different pair-crash schedules")
	}
	// Group the crash events by instant: each pair event must yield two
	// distinct victims crashing at the same virtual time.
	byAt := make(map[time.Duration][]int)
	for _, ev := range a.Nodes {
		if ev.Node == 0 {
			t.Fatalf("protected node %d scheduled", ev.Node)
		}
		if ev.Restart {
			continue
		}
		byAt[ev.At] = append(byAt[ev.At], ev.Node)
	}
	pairs := 0
	for at, victims := range byAt {
		if len(victims) != 2 {
			t.Fatalf("crash instant %v has %d victims, want 2", at, len(victims))
		}
		if victims[0] == victims[1] {
			t.Fatalf("pair at %v crashed the same node twice", at)
		}
		pairs++
	}
	if pairs != plan.PairCrashes {
		t.Fatalf("%d pair instants, want %d", pairs, plan.PairCrashes)
	}
	// RestartProb 1: every victim restarts after its crash.
	restarts := 0
	for _, ev := range a.Nodes {
		if ev.Restart {
			restarts++
		}
	}
	if restarts != 2*plan.PairCrashes {
		t.Fatalf("%d restarts, want %d", restarts, 2*plan.PairCrashes)
	}
}

func TestGeneratePairCrashesZeroPreservesDraws(t *testing.T) {
	// The PairCrashes knob must not consume RNG draws when zero, so
	// schedules generated before it existed replay identically.
	plan := Plan{
		Nodes:           8,
		Window:          time.Minute,
		Crashes:         3,
		RestartProb:     0.5,
		RestartDelayMin: time.Second,
		RestartDelayMax: 5 * time.Second,
		Partitions:      2,
		PartitionDurMin: time.Second,
		PartitionDurMax: 10 * time.Second,
	}
	withKnob := plan
	withKnob.PairCrashes = 0
	if !reflect.DeepEqual(Generate(3, plan), Generate(3, withKnob)) {
		t.Fatal("zero PairCrashes changed the schedule")
	}
}
