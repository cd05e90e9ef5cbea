package simnet

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/transport"
)

func newPair(t *testing.T) (*sim.Engine, *Net, *Endpoint, *Endpoint) {
	t.Helper()
	e := sim.NewEngine(1)
	n := New(e)
	n.Latency = FixedLatency(10 * time.Millisecond)
	a := n.NewEndpoint("a")
	b := n.NewEndpoint("b")
	return e, n, a, b
}

func TestCallRoundTrip(t *testing.T) {
	e, _, a, b := newPair(t)
	b.Handle("echo", func(p *sim.Proc, from Addr, req any) (any, error) {
		return fmt.Sprintf("%s:%v", from, req), nil
	})
	var got any
	var err error
	var rtt time.Duration
	a.Go("caller", func(p *sim.Proc) {
		start := p.Now()
		got, err = a.Call(p, "b", "echo", 42)
		rtt = p.Now().Sub(start)
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
	if len(a.procs) != 0 || len(b.procs) != 0 {
		t.Fatalf("endpoints still list %d and %d returned procs", len(a.procs), len(b.procs))
	}
}

func TestCallHandlerError(t *testing.T) {
	e, _, a, b := newPair(t)
	sentinel := errors.New("nope")
	b.Handle("fail", func(p *sim.Proc, from Addr, req any) (any, error) {
		return nil, sentinel
	})
	var err error
	a.Go("caller", func(p *sim.Proc) { _, err = a.Call(p, "b", "fail", nil) })
	e.Run()
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
}

func TestCallNoHandler(t *testing.T) {
	e, _, a, _ := newPair(t)
	var err error
	a.Go("caller", func(p *sim.Proc) { _, err = a.Call(p, "b", "missing", nil) })
	e.Run()
	if !errors.Is(err, ErrNoHandler) {
		t.Fatalf("err = %v", err)
	}
}

func TestCallToDownEndpointRefused(t *testing.T) {
	e, _, a, b := newPair(t)
	b.Crash()
	var err error
	var took time.Duration
	a.Go("caller", func(p *sim.Proc) {
		start := p.Now()
		_, err = a.Call(p, "b", "x", nil)
		took = p.Now().Sub(start)
	})
	e.Run()
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v", err)
	}
	if took != 10*time.Millisecond {
		t.Fatalf("refusal took %v, want one-way latency", took)
	}
}

func TestCallToDownEndpointTimesOutWithoutRST(t *testing.T) {
	e, n, a, b := newPair(t)
	n.RefuseWhenDown = false
	n.CallTimeout = time.Second
	b.Crash()
	var err error
	var took time.Duration
	a.Go("caller", func(p *sim.Proc) {
		start := p.Now()
		_, err = a.Call(p, "b", "x", nil)
		took = p.Now().Sub(start)
	})
	e.Run()
	if !errors.Is(err, ErrTimeout) || took != time.Second {
		t.Fatalf("err=%v took=%v", err, took)
	}
}

func TestCrashMidHandlerDropsResponse(t *testing.T) {
	e, n, a, b := newPair(t)
	n.CallTimeout = time.Second
	b.Handle("slow", func(p *sim.Proc, from Addr, req any) (any, error) {
		p.Sleep(500 * time.Millisecond)
		return "done", nil
	})
	e.Schedule(100*time.Millisecond, func() { b.Crash() })
	var err error
	a.Go("caller", func(p *sim.Proc) { _, err = a.Call(p, "b", "slow", nil) })
	e.Run()
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want timeout after crash mid-handler", err)
	}
}

func TestCrashInFlightRequestLost(t *testing.T) {
	// Crash while the request is on the wire: delivery re-check drops it.
	e, n, a, b := newPair(t)
	n.CallTimeout = time.Second
	b.Handle("x", func(p *sim.Proc, from Addr, req any) (any, error) { return 1, nil })
	e.Schedule(5*time.Millisecond, func() { b.Crash() })
	var err error
	a.Go("caller", func(p *sim.Proc) { _, err = a.Call(p, "b", "x", nil) })
	e.Run()
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v", err)
	}
}

func TestRestartAfterCrash(t *testing.T) {
	e, _, a, b := newPair(t)
	b.Handle("ping", func(p *sim.Proc, from Addr, req any) (any, error) { return "pong", nil })
	b.Crash()
	b.Restart()
	var got any
	a.Go("caller", func(p *sim.Proc) { got, _ = a.Call(p, "b", "ping", nil) })
	e.Run()
	if got != "pong" {
		t.Fatalf("got %v", got)
	}
}

func TestDropProbLosesEverything(t *testing.T) {
	e, n, a, b := newPair(t)
	n.Faults = transport.FaultFunc(func(transport.Addr, transport.Addr, string, bool) transport.Fault {
		return transport.Fault{Drop: true}
	})
	n.CallTimeout = 500 * time.Millisecond
	b.Handle("x", func(p *sim.Proc, from Addr, req any) (any, error) { return 1, nil })
	var err error
	a.Go("caller", func(p *sim.Proc) { _, err = a.Call(p, "b", "x", nil) })
	e.Run()
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v", err)
	}
	if n.Stats.Dropped == 0 {
		t.Fatal("no drops recorded")
	}
}

func TestPartition(t *testing.T) {
	e, n, a, b := newPair(t)
	n.CallTimeout = 200 * time.Millisecond
	b.Handle("x", func(p *sim.Proc, from Addr, req any) (any, error) { return 1, nil })
	n.SetReachable(func(x, y Addr) bool { return false })
	var err1 error
	a.Go("c1", func(p *sim.Proc) { _, err1 = a.Call(p, "b", "x", nil) })
	e.Run()
	if !errors.Is(err1, ErrTimeout) {
		t.Fatalf("partitioned call: %v", err1)
	}
	// Heal the partition.
	n.SetReachable(nil)
	var err2 error
	a.Go("c2", func(p *sim.Proc) { _, err2 = a.Call(p, "b", "x", nil) })
	e.Run()
	if err2 != nil {
		t.Fatalf("healed call: %v", err2)
	}
}

func TestConcurrentCallsIndependent(t *testing.T) {
	e, _, a, b := newPair(t)
	b.Handle("double", func(p *sim.Proc, from Addr, req any) (any, error) {
		p.Sleep(time.Duration(req.(int)) * time.Millisecond)
		return req.(int) * 2, nil
	})
	results := make(map[int]int)
	for _, d := range []int{300, 100, 200} {
		d := d
		a.Go("caller", func(p *sim.Proc) {
			v, err := a.Call(p, "b", "double", d)
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

func TestCallFromDownEndpoint(t *testing.T) {
	e, _, a, b := newPair(t)
	_ = b
	var err error
	done := make(chan struct{})
	a.Go("caller", func(p *sim.Proc) {
		defer close(done)
		a.up = false // simulate crash observed by our own call path
		_, err = a.Call(p, "b", "x", nil)
	})
	e.Run()
	<-done
	if !errors.Is(err, ErrDown) {
		t.Fatalf("err = %v", err)
	}
}

func TestStatsCounting(t *testing.T) {
	e, n, a, b := newPair(t)
	b.Handle("x", func(p *sim.Proc, from Addr, req any) (any, error) { return 1, nil })
	a.Go("caller", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			if _, err := a.Call(p, "b", "x", nil); err != nil {
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
// bound of 0 or less times out at once.
func TestCallTExplicitTimeout(t *testing.T) {
	for _, tc := range []struct{ timeout, want time.Duration }{
		{100 * time.Millisecond, 100 * time.Millisecond},
		{0, 0},
		{-time.Second, 0},
	} {
		e, _, a, b := newPair(t)
		b.Handle("slow", func(p *sim.Proc, from Addr, req any) (any, error) {
			p.Sleep(10 * time.Second)
			return nil, nil
		})
		var err error
		var took time.Duration
		a.Go("caller", func(p *sim.Proc) {
			start := p.Now()
			_, err = a.CallT(p, "b", "slow", nil, tc.timeout)
			took = p.Now().Sub(start)
		})
		e.Run()
		e.Shutdown()
		if !errors.Is(err, ErrTimeout) || took != tc.want {
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
		{name: "late", sleep: 100 * time.Millisecond, timeout: 50 * time.Millisecond, wantErr: ErrTimeout},
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
			b.Handle("work", func(p *sim.Proc, from Addr, req any) (any, error) {
				p.Sleep(tc.sleep)
				return req, nil
			})
			const bound = time.Second
			var err error
			var woken bool
			var returned, resumed sim.Time
			a.Go("caller", func(p *sim.Proc) {
				_, err = a.CallT(p, "b", "work", nil, tc.timeout)
				returned = p.Now()
				woken = p.Await(bound)
				resumed = p.Now()
			})
			e.Run()
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("call err = %v, want %v", err, tc.wantErr)
			}
			if woken || resumed != returned.Add(bound) {
				t.Fatalf("next wait woken=%v at %v, want its bound at %v", woken, resumed, returned.Add(bound))
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
	b.Handle("echo", func(p *sim.Proc, from Addr, req any) (any, error) { return req, nil })
	var err error
	a.Go("caller", func(p *sim.Proc) { _, err = a.Call(p, "b", "echo", nil) })
	e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.EventsFired != 5 {
		t.Fatalf("one round trip fired %d events, want 5", st.EventsFired)
	}
}
