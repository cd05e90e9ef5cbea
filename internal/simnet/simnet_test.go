package simnet

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/transport"
)

// The contract both transports meet (round trips, handler errors,
// missing handlers, timeouts, request-leg faults) is tested on both in
// internal/transport. These tests add what only the simulator has:
// exact virtual latency, partitions, crashes, stats and trace names.

func newPair(t *testing.T) (*sim.Engine, *Net, *Endpoint, *Endpoint) {
	t.Helper()
	e := sim.NewEngine(1)
	n := New(e)
	n.Latency = FixedLatency(10 * time.Millisecond)
	a := n.NewEndpoint("a")
	b := n.NewEndpoint("b")
	return e, n, a, b
}

// one serves method on b with a constant reply.
func one(rt transport.Runtime, from transport.Addr, req any) (any, error) { return 1, nil }

// callOnce runs one Call from a to b in an activity on a, runs the
// engine dry, and returns the call's outcome and virtual duration.
func callOnce(e *sim.Engine, a *Endpoint, method string) (resp any, took time.Duration, err error) {
	a.Go("caller", func(rt transport.Runtime) {
		start := rt.Now()
		resp, err = rt.Call("b", method, nil)
		took = rt.Now() - start
	})
	e.Run()
	return resp, took, err
}

func TestCallRoundTrip(t *testing.T) {
	e, _, a, b := newPair(t)
	b.Handle("echo", func(rt transport.Runtime, from transport.Addr, req any) (any, error) {
		return fmt.Sprintf("%s:%v", from, req), nil
	})
	var got any
	var err error
	var rtt time.Duration
	a.Go("caller", func(rt transport.Runtime) {
		start := rt.Now()
		got, err = rt.Call("b", "echo", 42)
		rtt = rt.Now() - start
	})
	e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got != "a:42" {
		t.Fatalf("got %v", got)
	}
	if rtt != 20*time.Millisecond {
		t.Fatalf("rtt = %v, want 20ms", rtt)
	}
	// Procs that returned (the caller, the request handler) are no
	// longer listed for the crash kill.
	if a.Procs() != 0 || b.Procs() != 0 {
		t.Fatalf("endpoints still list %d and %d returned procs", a.Procs(), b.Procs())
	}
}

// TestCallHandlerError: only the handler's message reaches the caller,
// as over TCP, one round trip later.
func TestCallHandlerError(t *testing.T) {
	e, _, a, b := newPair(t)
	sentinel := errors.New("nope")
	b.Handle("fail", func(rt transport.Runtime, from transport.Addr, req any) (any, error) {
		return nil, sentinel
	})
	_, took, err := callOnce(e, a, "fail")
	if err == nil || err.Error() != "nope" || errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the message only", err)
	}
	if took != 20*time.Millisecond {
		t.Fatalf("failed call took %v, want one round trip", took)
	}
}

func TestCallNoHandler(t *testing.T) {
	e, _, a, _ := newPair(t)
	_, _, err := callOnce(e, a, "missing")
	if !errors.Is(err, transport.ErrNoHandler) {
		t.Fatalf("err = %v", err)
	}
}

// TestCallToDownEndpointRefused: a call to a crashed endpoint, or to an
// address no endpoint has, is refused after one one-way latency.
func TestCallToDownEndpointRefused(t *testing.T) {
	e, n, a, b := newPair(t)
	b.Crash()
	_, took, err := callOnce(e, a, "x")
	if !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("err = %v", err)
	}
	if took != 10*time.Millisecond {
		t.Fatalf("refusal took %v, want one-way latency", took)
	}
	a.Go("caller", func(rt transport.Runtime) { _, err = rt.Call("nowhere", "x", nil) })
	e.Run()
	if !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("call to no endpoint: err = %v", err)
	}
	if n.Stats.Refused != 2 {
		t.Fatalf("stats: %+v", n.Stats)
	}
}

func TestCallToDownEndpointTimesOutWithoutRST(t *testing.T) {
	e, n, a, b := newPair(t)
	n.RefuseWhenDown = false
	n.CallTimeout = time.Second
	b.Crash()
	_, took, err := callOnce(e, a, "x")
	if !errors.Is(err, transport.ErrTimeout) || took != time.Second {
		t.Fatalf("err=%v took=%v", err, took)
	}
}

func TestCrashMidHandlerDropsResponse(t *testing.T) {
	e, n, a, b := newPair(t)
	n.CallTimeout = time.Second
	b.Handle("slow", func(rt transport.Runtime, from transport.Addr, req any) (any, error) {
		rt.Sleep(500 * time.Millisecond)
		return "done", nil
	})
	e.Schedule(100*time.Millisecond, func() { b.Crash() })
	if _, _, err := callOnce(e, a, "slow"); !errors.Is(err, transport.ErrTimeout) {
		t.Fatalf("err = %v, want timeout after crash mid-handler", err)
	}
}

func TestCrashInFlightRequestLost(t *testing.T) {
	// Crash while the request is on the wire: delivery re-check drops it.
	e, n, a, b := newPair(t)
	n.CallTimeout = time.Second
	b.Handle("x", one)
	e.Schedule(5*time.Millisecond, func() { b.Crash() })
	if _, _, err := callOnce(e, a, "x"); !errors.Is(err, transport.ErrTimeout) {
		t.Fatalf("err = %v", err)
	}
}

func TestCrashKillsActivities(t *testing.T) {
	e, _, a, _ := newPair(t)
	progressed := 0
	a.Go("loop", func(rt transport.Runtime) {
		for {
			rt.Sleep(time.Second)
			progressed++
		}
	})
	e.Schedule(2500*time.Millisecond, func() { a.Crash() })
	e.Run()
	if progressed != 2 {
		t.Fatalf("progressed %d ticks, want 2 (killed at 2.5s)", progressed)
	}
	if a.Up() || a.Procs() != 0 {
		t.Fatalf("after crash: up=%v procs=%d", a.Up(), a.Procs())
	}
}

func TestRestartAfterCrash(t *testing.T) {
	e, _, a, b := newPair(t)
	b.Handle("ping", func(rt transport.Runtime, from transport.Addr, req any) (any, error) { return "pong", nil })
	b.Crash()
	b.Restart()
	if got, _, _ := callOnce(e, a, "ping"); got != "pong" {
		t.Fatalf("got %v", got)
	}
}

func TestDropProbLosesEverything(t *testing.T) {
	e, n, a, b := newPair(t)
	n.Faults = transport.FaultFunc(func(transport.Addr, transport.Addr, string, bool) transport.Fault {
		return transport.Fault{Drop: true}
	})
	n.CallTimeout = 500 * time.Millisecond
	b.Handle("x", one)
	if _, _, err := callOnce(e, a, "x"); !errors.Is(err, transport.ErrTimeout) {
		t.Fatalf("err = %v", err)
	}
	if n.Stats.Dropped == 0 {
		t.Fatal("no drops recorded")
	}
}

func TestPartition(t *testing.T) {
	e, n, a, b := newPair(t)
	n.CallTimeout = 200 * time.Millisecond
	b.Handle("x", one)
	n.SetReachable(func(x, y transport.Addr) bool { return false })
	if _, _, err := callOnce(e, a, "x"); !errors.Is(err, transport.ErrTimeout) {
		t.Fatalf("partitioned call: %v", err)
	}
	// Heal the partition.
	n.SetReachable(nil)
	if _, _, err := callOnce(e, a, "x"); err != nil {
		t.Fatalf("healed call: %v", err)
	}
}

func TestConcurrentCallsIndependent(t *testing.T) {
	e, _, a, b := newPair(t)
	b.Handle("double", func(rt transport.Runtime, from transport.Addr, req any) (any, error) {
		rt.Sleep(time.Duration(req.(int)) * time.Millisecond)
		return req.(int) * 2, nil
	})
	results := make(map[int]int)
	for _, d := range []int{300, 100, 200} {
		a.Go("caller", func(rt transport.Runtime) {
			v, err := rt.Call("b", "double", d)
			if err != nil {
				t.Errorf("call %d: %v", d, err)
				return
			}
			results[d] = v.(int)
		})
	}
	e.Run()
	for _, d := range []int{100, 200, 300} {
		if results[d] != 2*d {
			t.Fatalf("results = %v", results)
		}
	}
}

// TestCallFromDownEndpoint: a proc that sees its own endpoint crash
// under it gets ErrDown from its next call, without a message sent.
func TestCallFromDownEndpoint(t *testing.T) {
	e, n, a, _ := newPair(t)
	var err error
	a.Go("caller", func(rt transport.Runtime) {
		a.up = false // simulate crash observed by our own call path
		_, err = rt.Call("b", "x", nil)
	})
	e.Run()
	if !errors.Is(err, transport.ErrDown) {
		t.Fatalf("err = %v", err)
	}
	if n.Stats.Messages != 0 {
		t.Fatalf("a down endpoint sent %d messages", n.Stats.Messages)
	}
}

func TestStatsCounting(t *testing.T) {
	e, n, a, b := newPair(t)
	b.Handle("x", one)
	a.Go("caller", func(rt transport.Runtime) {
		for i := 0; i < 5; i++ {
			if _, err := rt.Call("b", "x", nil); err != nil {
				t.Errorf("call: %v", err)
			}
		}
	})
	e.Run()
	if n.Stats.CallsSent != 5 || n.Stats.Handlers != 5 || n.Stats.Messages != 10 {
		t.Fatalf("stats = %+v", n.Stats)
	}
}

func TestDuplicateEndpointPanics(t *testing.T) {
	e := sim.NewEngine(1)
	n := New(e)
	n.NewEndpoint("dup")
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on duplicate address")
		}
	}()
	n.NewEndpoint("dup")
}

func TestUniformLatencyBounds(t *testing.T) {
	e := sim.NewEngine(1)
	u := UniformLatency{Min: 10 * time.Millisecond, Max: 50 * time.Millisecond}
	rng := e.NewRand()
	for i := 0; i < 1000; i++ {
		d := u.Delay(rng, "a", "b")
		if d < u.Min || d > u.Max {
			t.Fatalf("delay %v out of bounds", d)
		}
	}
	deg := UniformLatency{Min: 5 * time.Millisecond, Max: 5 * time.Millisecond}
	if deg.Delay(rng, "a", "b") != 5*time.Millisecond {
		t.Fatal("degenerate uniform wrong")
	}
}

func TestEndpointLookup(t *testing.T) {
	_, n, a, _ := newPair(t)
	if n.Endpoint("a") != a {
		t.Fatal("Endpoint lookup failed")
	}
	if n.Endpoint("zzz") != nil {
		t.Fatal("missing endpoint should be nil")
	}
	if a.Addr() != "a" || !a.Up() {
		t.Fatal("endpoint accessors wrong")
	}
}

// TestCallTExplicitTimeout: a call times out at its own bound, and a
// bound of 0 or less selects the network's CallTimeout, as the live
// transport's default does.
func TestCallTExplicitTimeout(t *testing.T) {
	for _, tc := range []struct{ timeout, want time.Duration }{
		{100 * time.Millisecond, 100 * time.Millisecond},
		{0, 3 * time.Second},
		{-time.Second, 3 * time.Second},
	} {
		e, _, a, b := newPair(t)
		b.Handle("slow", func(rt transport.Runtime, from transport.Addr, req any) (any, error) {
			rt.Sleep(10 * time.Second)
			return nil, nil
		})
		var err error
		var took time.Duration
		a.Go("caller", func(rt transport.Runtime) {
			start := rt.Now()
			_, err = rt.CallT("b", "slow", nil, tc.timeout)
			took = rt.Now() - start
		})
		e.Run()
		e.Shutdown()
		if !errors.Is(err, transport.ErrTimeout) || took != tc.want {
			t.Fatalf("timeout %v: err=%v took=%v, want a timeout after %v", tc.timeout, err, took, tc.want)
		}
	}
}

// TestStrayReplyDoesNotEndNextWait: a reply that reaches a caller which
// has stopped waiting for it, late after a timeout or as a duplicate of
// one already taken, must not wake the proc from its next wait.
func TestStrayReplyDoesNotEndNextWait(t *testing.T) {
	for _, tc := range []struct {
		name    string
		sleep   time.Duration // the handler's work
		timeout time.Duration
		dup     bool
		wantErr error
	}{
		// The reply lands at 120 ms, during the second wait.
		{name: "late", sleep: 100 * time.Millisecond, timeout: 50 * time.Millisecond, wantErr: transport.ErrTimeout},
		// The first reply lands at 20 ms, its copy at 30 ms.
		{name: "duplicate", timeout: time.Second, dup: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, n, a, b := newPair(t)
			if tc.dup {
				n.Faults = transport.FaultFunc(func(from, to transport.Addr, method string, response bool) transport.Fault {
					return transport.Fault{Duplicate: response}
				})
			}
			b.Handle("work", func(rt transport.Runtime, from transport.Addr, req any) (any, error) {
				rt.Sleep(tc.sleep)
				return req, nil
			})
			const bound = time.Second
			var err error
			var woken bool
			var returned, resumed time.Duration
			a.Go("caller", func(rt transport.Runtime) {
				_, err = rt.CallT("b", "work", nil, tc.timeout)
				returned = rt.Now()
				// A condition nobody broadcasts: only a stray wake ends
				// this wait before its bound.
				var mu sync.Mutex
				quiet := transport.Cond{L: &mu}
				mu.Lock()
				defer mu.Unlock()
				woken = rt.Wait(&quiet, bound)
				resumed = rt.Now()
			})
			e.Run()
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("call err = %v, want %v", err, tc.wantErr)
			}
			if woken || resumed != returned+bound {
				t.Fatalf("next wait woken=%v at %v, want its bound at %v", woken, resumed, returned+bound)
			}
		})
	}
}

// TestRPCRoundTripEvents pins the events one RPC fires on an idle net:
// the caller's start, the request's arrival, the handler's start, the
// reply's arrival and the caller's wake.
func TestRPCRoundTripEvents(t *testing.T) {
	e, _, a, b := newPair(t)
	st := e.EnableStats()
	b.Handle("echo", func(rt transport.Runtime, from transport.Addr, req any) (any, error) { return req, nil })
	if _, _, err := callOnce(e, a, "echo"); err != nil {
		t.Fatal(err)
	}
	if st.EventsFired != 5 {
		t.Fatalf("one round trip fired %d events, want 5", st.EventsFired)
	}
}
