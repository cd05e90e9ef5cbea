package transport_test

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/nettransport"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// backing is one transport under test: host a, where the test's
// activities run, and host b, which serves their calls. Faults given at
// construction apply to a's requests.
type backing interface {
	A() transport.Host
	B() transport.Host
	// Go starts an activity on a; it may be called from inside another.
	Go(fn func(rt transport.Runtime))
	// Run lets the started activities run for at most limit of the
	// backing's clock and reports whether all of them returned.
	Run(limit time.Duration) bool
	// Down takes h down: a crash under simulation, Close over TCP.
	Down(h transport.Host)
}

type simBacking struct {
	e             *sim.Engine
	a, b          *simnet.Endpoint
	started, done int
}

func newSimBacking(faults transport.FaultInjector, a, b transport.Addr) *simBacking {
	e := sim.NewEngine(1)
	n := simnet.New(e)
	n.Latency = simnet.FixedLatency(10 * time.Millisecond)
	n.Faults = faults
	return &simBacking{e: e, a: n.NewEndpoint(a), b: n.NewEndpoint(b)}
}

func (b *simBacking) A() transport.Host { return b.a }
func (b *simBacking) B() transport.Host { return b.b }

func (b *simBacking) Go(fn func(rt transport.Runtime)) {
	b.started++
	b.a.Go("activity", func(rt transport.Runtime) {
		fn(rt)
		b.done++
	})
}

func (b *simBacking) Run(limit time.Duration) bool {
	b.e.RunUntil(b.e.Now().Add(limit))
	return b.done == b.started
}

func (b *simBacking) Down(h transport.Host) { h.(*simnet.Endpoint).Crash() }

type liveBacking struct {
	a, b *nettransport.Host
	wg   sync.WaitGroup
}

func newLiveBacking(t *testing.T, faults transport.FaultInjector) *liveBacking {
	t.Helper()
	b, err := nettransport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	a, err := nettransport.ListenOpts("127.0.0.1:0", nettransport.Opts{Chaos: faults})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)
	return &liveBacking{a: a, b: b}
}

func (b *liveBacking) A() transport.Host { return b.a }
func (b *liveBacking) B() transport.Host { return b.b }

func (b *liveBacking) Go(fn func(rt transport.Runtime)) {
	b.wg.Add(1)
	b.a.Go("activity", func(rt transport.Runtime) {
		defer b.wg.Done()
		fn(rt)
	})
}

func (b *liveBacking) Run(limit time.Duration) bool {
	all := make(chan struct{})
	go func() {
		b.wg.Wait()
		close(all)
	}()
	select {
	case <-all:
		return true
	case <-time.After(limit):
		return false
	}
}

func (b *liveBacking) Down(h transport.Host) { h.(*nettransport.Host).Close() }

// onBoth runs body on a fresh pair of each transport, with faults on
// a's requests.
func onBoth(t *testing.T, faults transport.FaultInjector, body func(t *testing.T, b backing)) {
	t.Run("sim", func(t *testing.T) {
		b := newSimBacking(faults, "a", "b")
		defer b.e.Shutdown()
		body(t, b)
	})
	t.Run("live", func(t *testing.T) {
		body(t, newLiveBacking(t, faults))
	})
}

// serveEcho registers "echo" on h and returns the count of its runs.
// Its reply names the caller and echoes the request.
func serveEcho(h transport.Host) *atomic.Int64 {
	var served atomic.Int64
	h.Handle("echo", func(rt transport.Runtime, from transport.Addr, req any) (any, error) {
		served.Add(1)
		return fmt.Sprintf("%s:%v", from, req), nil
	})
	return &served
}

// outcome is one call's result, how long it took on the backing's
// clock, and whether it returned at all.
type outcome struct {
	resp     any
	err      error
	took     time.Duration
	returned bool
}

// call runs do in an activity on a, for at most 10 s of the backing's
// clock.
func call(b backing, do func(rt transport.Runtime) (any, error)) outcome {
	var o outcome
	b.Go(func(rt transport.Runtime) {
		began := rt.Now()
		o.resp, o.err = do(rt)
		o.took = rt.Now() - began
	})
	o.returned = b.Run(10 * time.Second)
	return o
}

// sentinels are the errors a transport itself reports.
var sentinels = []error{transport.ErrTimeout, transport.ErrUnreachable, transport.ErrNoHandler, transport.ErrDown}

// TestConformance holds both transports to one contract: each row runs
// on a simnet pair and on a loopback nettransport pair, and a fault is
// injected into a's requests through the same transport.FaultFunc.
func TestConformance(t *testing.T) {
	for _, row := range []struct {
		name  string
		fault transport.Fault // on a's requests
		body  func(t *testing.T, b backing)
	}{
		{name: "round trip", body: func(t *testing.T, b backing) {
			served := serveEcho(b.B())
			var slept time.Duration
			var rng bool
			o := call(b, func(rt transport.Runtime) (any, error) {
				began := rt.Now()
				rt.Sleep(5 * time.Millisecond)
				slept, rng = rt.Now()-began, rt.Rand() != nil
				return rt.Call(b.B().Addr(), "echo", 42)
			})
			if !o.returned || o.err != nil {
				t.Fatalf("call returned=%v err=%v", o.returned, o.err)
			}
			if want := fmt.Sprintf("%s:42", b.A().Addr()); o.resp != want {
				t.Fatalf("reply %v, want %q: the handler's reply with the caller's address", o.resp, want)
			}
			if o.took <= 0 || slept < 5*time.Millisecond || !rng {
				t.Fatalf("clock: call took %v, 5ms sleep took %v; rand %v", o.took, slept, rng)
			}
			if served.Load() != 1 || !b.A().Up() {
				t.Fatalf("served %d, caller up %v", served.Load(), b.A().Up())
			}
		}},
		{name: "handler error", body: func(t *testing.T, b backing) {
			exploded := errors.New("handler exploded")
			b.B().Handle("fail", func(transport.Runtime, transport.Addr, any) (any, error) { return nil, exploded })
			o := call(b, func(rt transport.Runtime) (any, error) {
				return rt.Call(b.B().Addr(), "fail", nil)
			})
			if o.err == nil || o.err.Error() != "handler exploded" {
				t.Fatalf("err = %v, want the handler's message", o.err)
			}
			if errors.Is(o.err, exploded) || transport.Transient(o.err) {
				t.Fatalf("err %v: only the message crosses, and it is not transient", o.err)
			}
			for _, s := range sentinels {
				if errors.Is(o.err, s) {
					t.Fatalf("handler error reported as %v", s)
				}
			}
		}},
		{name: "no handler", body: func(t *testing.T, b backing) {
			o := call(b, func(rt transport.Runtime) (any, error) {
				return rt.Call(b.B().Addr(), "missing", nil)
			})
			if !errors.Is(o.err, transport.ErrNoHandler) || transport.Transient(o.err) {
				t.Fatalf("err = %v, want ErrNoHandler", o.err)
			}
		}},
		{name: "timeout", body: func(t *testing.T, b backing) {
			b.B().Handle("slow", func(rt transport.Runtime, _ transport.Addr, _ any) (any, error) {
				rt.Sleep(500 * time.Millisecond)
				return nil, nil
			})
			o := call(b, func(rt transport.Runtime) (any, error) {
				return rt.CallT(b.B().Addr(), "slow", nil, 50*time.Millisecond)
			})
			if !errors.Is(o.err, transport.ErrTimeout) || o.took < 50*time.Millisecond || o.took >= 500*time.Millisecond {
				t.Fatalf("err = %v after %v, want ErrTimeout at the 50ms bound", o.err, o.took)
			}
		}},
		{name: "caller down", body: func(t *testing.T, b backing) {
			served := serveEcho(b.B())
			b.Down(b.A())
			o := call(b, func(rt transport.Runtime) (any, error) {
				resp, err := rt.Call(b.B().Addr(), "echo", 1)
				rt.Sleep(50 * time.Millisecond) // for a request that did go out to be served
				return resp, err
			})
			if !errors.Is(o.err, transport.ErrDown) || b.A().Up() || served.Load() != 0 {
				t.Fatalf("err = %v, up %v, served %d: want ErrDown and nothing sent", o.err, b.A().Up(), served.Load())
			}
		}},
		{name: "peer gone", body: func(t *testing.T, b backing) {
			served := serveEcho(b.B())
			b.Down(b.B())
			o := call(b, func(rt transport.Runtime) (any, error) {
				return rt.CallT(b.B().Addr(), "echo", 1, time.Second)
			})
			if !transport.Transient(o.err) || served.Load() != 0 {
				t.Fatalf("err = %v, served %d: want a transient error", o.err, served.Load())
			}
		}},
		{name: "drop", fault: transport.Fault{Drop: true}, body: func(t *testing.T, b backing) {
			served := serveEcho(b.B())
			o := call(b, func(rt transport.Runtime) (any, error) {
				return rt.CallT(b.B().Addr(), "echo", 1, 100*time.Millisecond)
			})
			if !errors.Is(o.err, transport.ErrTimeout) || o.took < 100*time.Millisecond || served.Load() != 0 {
				t.Fatalf("err = %v after %v, served %d: want the caller's timeout burnt and nothing served", o.err, o.took, served.Load())
			}
		}},
		{name: "delay", fault: transport.Fault{Delay: 100 * time.Millisecond}, body: func(t *testing.T, b backing) {
			serveEcho(b.B())
			o := call(b, func(rt transport.Runtime) (any, error) {
				return rt.CallT(b.B().Addr(), "echo", 1, 5*time.Second)
			})
			if o.err != nil || o.resp != fmt.Sprintf("%s:1", b.A().Addr()) || o.took < 100*time.Millisecond {
				t.Fatalf("(%v, %v) after %v: want the reply, after the 100ms delay", o.resp, o.err, o.took)
			}
			// A delay past the caller's bound is a timeout at the bound.
			o = call(b, func(rt transport.Runtime) (any, error) {
				return rt.CallT(b.B().Addr(), "echo", 2, 50*time.Millisecond)
			})
			if !errors.Is(o.err, transport.ErrTimeout) || o.took < 50*time.Millisecond {
				t.Fatalf("err = %v after %v, want ErrTimeout at the 50ms bound", o.err, o.took)
			}
		}},
		{name: "duplicate", fault: transport.Fault{Duplicate: true}, body: func(t *testing.T, b backing) {
			served := serveEcho(b.B())
			o := call(b, func(rt transport.Runtime) (any, error) {
				resp, err := rt.CallT(b.B().Addr(), "echo", 1, 5*time.Second)
				for began := rt.Now(); served.Load() < 2 && rt.Now()-began < 5*time.Second; {
					rt.Sleep(time.Millisecond)
				}
				return resp, err
			})
			if o.err != nil || o.resp != fmt.Sprintf("%s:1", b.A().Addr()) || served.Load() != 2 {
				t.Fatalf("(%v, %v), served %d: want one reply and the handler run twice", o.resp, o.err, served.Load())
			}
		}},
		{name: "refuse", fault: transport.Fault{Refuse: true}, body: keptOffPeer},
		{name: "reset", fault: transport.Fault{Reset: true}, body: keptOffPeer},
		{name: "wait", body: func(t *testing.T, b backing) {
			var mu sync.Mutex
			c := transport.Cond{L: &mu}
			var ready, woken, expired bool
			var waited time.Duration
			b.Go(func(rt transport.Runtime) {
				mu.Lock()
				defer mu.Unlock()
				// The broadcaster takes the lock, so it sets ready only
				// once the waiter has parked.
				b.Go(func(rt transport.Runtime) {
					rt.Sleep(10 * time.Millisecond)
					mu.Lock()
					ready = true
					mu.Unlock()
					c.Broadcast()
				})
				for !ready {
					woken = rt.Wait(&c, transport.Forever)
				}
				began := rt.Now()
				expired = !rt.Wait(&c, 20*time.Millisecond)
				waited = rt.Now() - began
			})
			if !b.Run(10*time.Second) || !woken {
				t.Fatal("an unbounded wait was not woken by the broadcast")
			}
			if !expired || waited < 20*time.Millisecond {
				t.Fatalf("bounded wait: expired %v after %v, want expiry at the 20ms bound", expired, waited)
			}
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			var faults transport.FaultInjector
			if row.fault != (transport.Fault{}) {
				f := row.fault
				faults = transport.FaultFunc(func(_, _ transport.Addr, _ string, response bool) transport.Fault {
					if response {
						return transport.Fault{}
					}
					return f
				})
			}
			onBoth(t, faults, row.body)
		})
	}

	// One seed and one rule draw the same fates on both transports: an
	// injector per backing, the simnet pair named after the loopback
	// pair so that both hash the same keys.
	t.Run("same fates", func(t *testing.T) {
		rule := faultinject.Rule{Method: "echo", Requests: true, DropProb: 0.5}
		live := newLiveBacking(t, faultinject.NewKeyed(7, rule))
		simulated := newSimBacking(faultinject.NewKeyed(7, rule), live.a.Addr(), live.b.Addr())
		defer simulated.e.Shutdown()
		want, got := servedCalls(t, live), servedCalls(t, simulated)
		if got != want {
			t.Fatalf("served calls over TCP %v\nin simulation      %v", want, got)
		}
		served := 0
		for _, ok := range want {
			if ok {
				served++
			}
		}
		if served == 0 || served == len(want) {
			t.Fatalf("%d of %d calls served: drop=0.5 drew one fate only", served, len(want))
		}
	})
}

// servedCalls makes 64 sequential echo calls a->b and reports which
// reached b's handler. A ping, which no rule matches, follows each echo:
// its reply closes a's breaker on b, so a run of dropped echoes is not
// cut short by an open breaker that would fail the next calls before
// they draw their fates.
func servedCalls(t *testing.T, b backing) (served [64]bool) {
	var mu sync.Mutex
	b.B().Handle("echo", func(_ transport.Runtime, _ transport.Addr, req any) (any, error) {
		mu.Lock()
		served[req.(int)] = true
		mu.Unlock()
		return nil, nil
	})
	b.B().Handle("ping", func(transport.Runtime, transport.Addr, any) (any, error) { return nil, nil })
	var err error
	b.Go(func(rt transport.Runtime) {
		for i := range served {
			_, _ = rt.CallT(b.B().Addr(), "echo", i, 50*time.Millisecond)
			if _, err = rt.CallT(b.B().Addr(), "ping", nil, time.Second); err != nil {
				return
			}
		}
	})
	if !b.Run(time.Minute) || err != nil {
		t.Fatalf("calls did not finish: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	return served
}

// keptOffPeer is the refuse and reset row: the call fails as transient
// and the request never reaches the handler.
func keptOffPeer(t *testing.T, b backing) {
	served := serveEcho(b.B())
	o := call(b, func(rt transport.Runtime) (any, error) {
		return rt.CallT(b.B().Addr(), "echo", 1, time.Second)
	})
	if !transport.Transient(o.err) || served.Load() != 0 {
		t.Fatalf("err = %v, served %d: want a transient error and nothing served", o.err, served.Load())
	}
}
