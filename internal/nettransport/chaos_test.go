package nettransport

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rntree"
	"repro/internal/transport"
)

// chaosPair boots a serving host b and a client host a whose outbound
// calls run under the given chaos schedule. The handler counts its
// invocations so tests can prove a fault kept a request off the peer.
func chaosPair(t *testing.T, opts Opts) (a, b *Host, served *atomic.Int64) {
	t.Helper()
	b, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	served = &atomic.Int64{}
	b.Handle("echo", func(rt transport.Runtime, from transport.Addr, req any) (any, error) {
		served.Add(1)
		return rntree.SearchResp{Visits: req.(rntree.SearchReq).K}, nil
	})
	a, err = ListenOpts("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)
	return a, b, served
}

// TestChaosFateDeterministic is the replay contract: the same seed and
// rules draw the identical fate sequence for a (peer, method) pair,
// and a different seed draws a different one.
func TestChaosFateDeterministic(t *testing.T) {
	rules := []ChaosRule{{Refuse: 0.2, Reset: 0.2, Blackhole: 0.1, Stall: 0.2, StallFor: time.Second}}
	const N = 300
	seq := func(seed int64) []string {
		c := NewChaos(seed, rules...)
		out := make([]string, N)
		for i := range out {
			out[i] = c.fate("127.0.0.1:9999", "grid.assign").name()
		}
		return out
	}
	runA, runB, other := seq(7), seq(7), seq(8)
	faults := 0
	for i := range runA {
		if runA[i] != runB[i] {
			t.Fatalf("draw %d: seed 7 gave %q then %q — schedule not deterministic", i, runA[i], runB[i])
		}
		if runA[i] != "none" {
			faults++
		}
	}
	if faults == 0 {
		t.Fatal("300 draws at ~50% fault mass injected nothing")
	}
	same := 0
	for i := range runA {
		if runA[i] == other[i] {
			same++
		}
	}
	if same == N {
		t.Fatal("seeds 7 and 8 drew identical fate sequences")
	}
}

// TestChaosFateIndependentOfInterleaving checks that two pairs' draw
// sequences don't perturb each other: interleaving calls to a second
// peer leaves the first peer's sequence unchanged.
func TestChaosFateIndependentOfInterleaving(t *testing.T) {
	rules := []ChaosRule{{Refuse: 0.3, Reset: 0.3}}
	solo := NewChaos(3, rules...)
	mixed := NewChaos(3, rules...)
	var want, got []string
	for i := 0; i < 100; i++ {
		want = append(want, solo.fate("p1", "m").name())
	}
	for i := 0; i < 100; i++ {
		mixed.fate("p2", "m") // interleaved traffic to another peer
		got = append(got, mixed.fate("p1", "m").name())
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("draw %d for p1: %q solo vs %q interleaved", i, want[i], got[i])
		}
	}
}

func TestParseRules(t *testing.T) {
	rules, err := ParseRules("method=grid.assign reset=0.1; peer=127.0.0.1:7702 stall=0.2:300ms throttle=0.5:2048; blackhole=0.05")
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 3 {
		t.Fatalf("parsed %d rules, want 3", len(rules))
	}
	if rules[0].Method != "grid.assign" || rules[0].Reset != 0.1 {
		t.Fatalf("rule 0 = %+v", rules[0])
	}
	if rules[1].Peer != "127.0.0.1:7702" || rules[1].Stall != 0.2 ||
		rules[1].StallFor != 300*time.Millisecond || rules[1].Rate != 2048 {
		t.Fatalf("rule 1 = %+v", rules[1])
	}
	if rules[2].Blackhole != 0.05 || rules[2].Peer != "" || rules[2].Method != "" {
		t.Fatalf("rule 2 = %+v", rules[2])
	}
	for _, bad := range []string{"refuse=1.5", "stall=0.1", "throttle=0.1:0", "nonsense=1", "refuse"} {
		if _, err := ParseRules(bad); err == nil {
			t.Errorf("ParseRules(%q) accepted", bad)
		}
	}
}

func TestChaosRefuseKeepsRequestOffPeer(t *testing.T) {
	a, b, served := chaosPair(t, Opts{
		Chaos:            NewChaos(1, ChaosRule{Method: "echo", Refuse: 1}),
		BreakerThreshold: -1,
	})
	rt := a.newRuntime()
	_, err := rt.Call(b.Addr(), "echo", rntree.SearchReq{K: 1})
	if !transport.Transient(err) {
		t.Fatalf("refused call: err = %v, want transient", err)
	}
	if !strings.Contains(err.Error(), "chaos") {
		t.Fatalf("err %q does not name the injection", err)
	}
	if got := served.Load(); got != 0 {
		t.Fatalf("peer served %d requests through a refused connect", got)
	}
}

func TestChaosBlackholeBurnsCallerTimeout(t *testing.T) {
	a, b, served := chaosPair(t, Opts{
		Chaos:            NewChaos(1, ChaosRule{Blackhole: 1}),
		BreakerThreshold: -1,
	})
	rt := a.newRuntime()
	began := time.Now()
	_, err := rt.CallT(b.Addr(), "echo", rntree.SearchReq{K: 1}, 120*time.Millisecond)
	if err != transport.ErrTimeout {
		t.Fatalf("blackholed call: err = %v, want ErrTimeout", err)
	}
	if el := time.Since(began); el < 100*time.Millisecond {
		t.Fatalf("blackholed call returned after %s; must burn the timeout", el)
	}
	if got := served.Load(); got != 0 {
		t.Fatalf("peer served %d blackholed requests", got)
	}
}

// TestChaosResetScopedByMethod injects a guaranteed mid-frame reset on
// one method: it must fail transient while a following call on an
// unmatched method redials and succeeds.
func TestChaosResetScopedByMethod(t *testing.T) {
	a, b, served := chaosPair(t, Opts{
		Chaos:            NewChaos(1, ChaosRule{Method: "echo", Reset: 1}),
		BreakerThreshold: -1,
	})
	b.Handle("other", func(rt transport.Runtime, from transport.Addr, req any) (any, error) {
		return rntree.SearchResp{Visits: 9}, nil
	})
	rt := a.newRuntime()
	if _, err := rt.Call(b.Addr(), "echo", rntree.SearchReq{K: 1}); !transport.Transient(err) {
		t.Fatalf("reset call: err = %v, want transient", err)
	}
	if served.Load() != 0 {
		t.Fatal("truncated request still decoded on the peer")
	}
	resp, err := rt.Call(b.Addr(), "other", rntree.SearchReq{})
	if err != nil {
		t.Fatalf("call after reset: %v", err)
	}
	if resp.(rntree.SearchResp).Visits != 9 {
		t.Fatalf("bad response after reset recovery: %+v", resp)
	}
}

// TestChaosRuleMethodMustBeHandled is the check gridnode applies to
// its -chaos rules: a rule scoped to a method nobody registered would
// match no call and inject nothing, so Handles must tell them apart.
func TestChaosRuleMethodMustBeHandled(t *testing.T) {
	_, b, _ := chaosPair(t, Opts{})
	rules, err := ParseRules("method=echo refuse=0.5; method=grid.nosuch reset=1")
	if err != nil {
		t.Fatal(err)
	}
	if !b.Handles(rules[0].Method) {
		t.Fatalf("Handles(%q) = false for a registered method", rules[0].Method)
	}
	if b.Handles(rules[1].Method) {
		t.Fatalf("Handles(%q) = true for a method with no handler", rules[1].Method)
	}
}

func TestChaosStall(t *testing.T) {
	// A stall at least as long as the caller's budget is a timeout...
	a, b, _ := chaosPair(t, Opts{
		Chaos:            NewChaos(1, ChaosRule{Stall: 1, StallFor: time.Second}),
		BreakerThreshold: -1,
	})
	rt := a.newRuntime()
	if _, err := rt.CallT(b.Addr(), "echo", rntree.SearchReq{}, 80*time.Millisecond); err != transport.ErrTimeout {
		t.Fatalf("over-budget stall: err = %v, want ErrTimeout", err)
	}
	// ...while a shorter stall only delays the (successful) call.
	a2, b2, _ := chaosPair(t, Opts{
		Chaos:            NewChaos(1, ChaosRule{Stall: 1, StallFor: 100 * time.Millisecond}),
		BreakerThreshold: -1,
	})
	began := time.Now()
	resp, err := a2.newRuntime().CallT(b2.Addr(), "echo", rntree.SearchReq{K: 5}, 2*time.Second)
	if err != nil {
		t.Fatalf("stalled call: %v", err)
	}
	if resp.(rntree.SearchResp).Visits != 5 {
		t.Fatalf("bad response: %+v", resp)
	}
	if el := time.Since(began); el < 100*time.Millisecond {
		t.Fatalf("stalled call finished in %s, faster than its 100ms stall", el)
	}
}

func TestChaosThrottleDelaysButDelivers(t *testing.T) {
	a, b, _ := chaosPair(t, Opts{
		Chaos:            NewChaos(1, ChaosRule{Throttle: 1, Rate: 2000}),
		BreakerThreshold: -1,
	})
	rt := a.newRuntime()
	began := time.Now()
	resp, err := rt.CallT(b.Addr(), "echo", rntree.SearchReq{K: 3}, 5*time.Second)
	if err != nil {
		t.Fatalf("throttled call: %v", err)
	}
	if resp.(rntree.SearchResp).Visits != 3 {
		t.Fatalf("bad response: %+v", resp)
	}
	// A few hundred frame bytes at 2000 B/s in >=64-byte chunks means
	// at least a few paced sleeps.
	if el := time.Since(began); el < 60*time.Millisecond {
		t.Fatalf("throttled call finished in %s; rate limit did not engage", el)
	}
	if a.opts.Chaos.Counts()["throttle"] == 0 {
		t.Fatal("throttle counter did not move")
	}
}
