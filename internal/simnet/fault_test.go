package simnet_test

import (
	"errors"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// Request-leg faults behave alike on both transports and are tested on
// both in internal/transport; these tests add the simulator's exact
// timings and counters. The live transport injects no response-leg
// faults, so those are tested here only.

// faultCall makes one call from "a" to an echo handler on "b", with a
// fixed 10ms latency, a 1s bound and the given fault injector, and
// returns the network's counters and the call's reply, virtual
// duration and error.
func faultCall(t *testing.T, fn transport.FaultInjector) (st simnet.Stats, resp any, took time.Duration, err error) {
	t.Helper()
	e := sim.NewEngine(1)
	net := simnet.New(e)
	net.Latency = simnet.FixedLatency(10 * time.Millisecond)
	net.Faults = fn
	a := net.NewEndpoint("a")
	b := net.NewEndpoint("b")
	b.Handle("echo", func(rt transport.Runtime, from transport.Addr, req any) (any, error) {
		return req, nil
	})
	a.Go("caller", func(rt transport.Runtime) {
		start := rt.Now()
		resp, err = rt.CallT("b", "echo", "hi", time.Second)
		took = rt.Now() - start
	})
	e.Run()
	return net.Stats, resp, took, err
}

func TestFaultDropRequestTimesOut(t *testing.T) {
	st, _, took, err := faultCall(t, transport.FaultFunc(func(from, to transport.Addr, method string, response bool) transport.Fault {
		return transport.Fault{Drop: !response}
	}))
	if !errors.Is(err, transport.ErrTimeout) || took != time.Second {
		t.Fatalf("dropped request returned %v after %v, want timeout at 1s", err, took)
	}
	if st.Faulted != 1 || st.Dropped != 1 || st.Handlers != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestFaultDropResponseTimesOut(t *testing.T) {
	st, _, _, err := faultCall(t, transport.FaultFunc(func(from, to transport.Addr, method string, response bool) transport.Fault {
		return transport.Fault{Drop: response}
	}))
	if !errors.Is(err, transport.ErrTimeout) {
		t.Fatalf("dropped response returned %v, want timeout", err)
	}
	if st.Handlers != 1 {
		t.Fatal("handler never ran; the request leg should have been clean")
	}
	if st.Faulted != 1 || st.Dropped != 1 {
		t.Fatalf("stats: %+v, want the one dropped response counted", st)
	}
}

func TestFaultDelayPostponesDelivery(t *testing.T) {
	_, _, took, err := faultCall(t, transport.FaultFunc(func(from, to transport.Addr, method string, response bool) transport.Fault {
		if response {
			return transport.Fault{}
		}
		return transport.Fault{Delay: 500 * time.Millisecond}
	}))
	if err != nil {
		t.Fatalf("call: %v", err)
	}
	// 10ms out (+500ms injected) + 10ms back.
	if took != 520*time.Millisecond {
		t.Fatalf("delayed call took %v, want 520ms", took)
	}
}

func TestFaultDuplicateRunsHandlerTwice(t *testing.T) {
	st, resp, _, err := faultCall(t, transport.FaultFunc(func(from, to transport.Addr, method string, response bool) transport.Fault {
		return transport.Fault{Duplicate: !response}
	}))
	if err != nil || resp != "hi" {
		t.Fatalf("duplicated call returned (%v, %v), want (hi, nil)", resp, err)
	}
	if st.Handlers != 2 {
		t.Fatalf("handler ran %d times, want 2 (original + duplicate)", st.Handlers)
	}
}

func TestFaultZeroValueIsTransparent(t *testing.T) {
	st, _, _, err := faultCall(t, transport.FaultFunc(func(from, to transport.Addr, method string, response bool) transport.Fault {
		return transport.Fault{}
	}))
	if err != nil {
		t.Fatalf("clean call failed: %v", err)
	}
	if st.Faulted != 0 {
		t.Fatalf("zero fault counted as injected: %+v", st)
	}
}

// TestFaultRefuseAndResetAreRST: an injected refuse or reset takes the
// down-endpoint refusal path, ErrUnreachable after one one-way latency,
// and the request never reaches the handler.
func TestFaultRefuseAndResetAreRST(t *testing.T) {
	for _, spec := range []string{"refuse=1", "reset=1"} {
		t.Run(spec, func(t *testing.T) {
			rules, err := faultinject.ParseRules(spec)
			if err != nil {
				t.Fatal(err)
			}
			st, _, took, err := faultCall(t, faultinject.NewKeyed(1, rules...))
			if !errors.Is(err, transport.ErrUnreachable) {
				t.Fatalf("call returned %v, want ErrUnreachable", err)
			}
			if took != 10*time.Millisecond {
				t.Fatalf("refusal took %v, want one one-way latency (10ms)", took)
			}
			if st.Handlers != 0 || st.Refused != 1 {
				t.Fatalf("stats: %+v", st)
			}
		})
	}
}
