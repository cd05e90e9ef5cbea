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

// faultPair builds two endpoints with a fixed 10ms latency and an echo
// handler on "b", driven by the given fault injector.
func faultPair(t *testing.T, fn transport.FaultInjector) (*sim.Engine, *simnet.Net, *simnet.Endpoint) {
	t.Helper()
	e := sim.NewEngine(1)
	net := simnet.New(e)
	net.Latency = simnet.FixedLatency(10 * time.Millisecond)
	net.Faults = fn
	a := net.NewEndpoint("a")
	b := net.NewEndpoint("b")
	b.Handle("echo", func(p *sim.Proc, from simnet.Addr, req any) (any, error) {
		return req, nil
	})
	return e, net, a
}

func TestFaultDropRequestTimesOut(t *testing.T) {
	e, net, a := faultPair(t, transport.FaultFunc(func(from, to transport.Addr, method string, response bool) transport.Fault {
		return transport.Fault{Drop: !response}
	}))
	var err error
	e.Spawn("caller", func(p *sim.Proc) {
		_, err = a.CallT(p, "b", "echo", "hi", time.Second)
	})
	e.Run()
	if !errors.Is(err, simnet.ErrTimeout) {
		t.Fatalf("dropped request returned %v, want timeout", err)
	}
	if net.Stats.Faulted != 1 || net.Stats.Dropped != 1 {
		t.Fatalf("stats: %+v", net.Stats)
	}
}

func TestFaultDropResponseTimesOut(t *testing.T) {
	e, net, a := faultPair(t, transport.FaultFunc(func(from, to transport.Addr, method string, response bool) transport.Fault {
		return transport.Fault{Drop: response}
	}))
	var err error
	e.Spawn("caller", func(p *sim.Proc) {
		_, err = a.CallT(p, "b", "echo", "hi", time.Second)
	})
	e.Run()
	if !errors.Is(err, simnet.ErrTimeout) {
		t.Fatalf("dropped response returned %v, want timeout", err)
	}
	if net.Stats.Handlers != 1 {
		t.Fatal("handler never ran; the request leg should have been clean")
	}
}

func TestFaultDelayPostponesDelivery(t *testing.T) {
	e, _, a := faultPair(t, transport.FaultFunc(func(from, to transport.Addr, method string, response bool) transport.Fault {
		if response {
			return transport.Fault{}
		}
		return transport.Fault{Delay: time.Second}
	}))
	var took time.Duration
	e.Spawn("caller", func(p *sim.Proc) {
		start := p.Now()
		if _, err := a.CallT(p, "b", "echo", "hi", 5*time.Second); err != nil {
			t.Errorf("call: %v", err)
		}
		took = time.Duration(p.Now() - start)
	})
	e.Run()
	// 10ms out (+1s injected) + 10ms back.
	if took < 1020*time.Millisecond || took > 1100*time.Millisecond {
		t.Fatalf("delayed call took %v, want ~1.02s", took)
	}
}

func TestFaultDuplicateRunsHandlerTwice(t *testing.T) {
	e, net, a := faultPair(t, transport.FaultFunc(func(from, to transport.Addr, method string, response bool) transport.Fault {
		return transport.Fault{Duplicate: !response}
	}))
	var resp any
	var err error
	e.Spawn("caller", func(p *sim.Proc) {
		resp, err = a.CallT(p, "b", "echo", "hi", time.Second)
	})
	e.Run()
	if err != nil || resp != "hi" {
		t.Fatalf("duplicated call returned (%v, %v), want (hi, nil)", resp, err)
	}
	if net.Stats.Handlers != 2 {
		t.Fatalf("handler ran %d times, want 2 (original + duplicate)", net.Stats.Handlers)
	}
}

func TestFaultZeroValueIsTransparent(t *testing.T) {
	e, net, a := faultPair(t, transport.FaultFunc(func(from, to transport.Addr, method string, response bool) transport.Fault {
		return transport.Fault{}
	}))
	var err error
	e.Spawn("caller", func(p *sim.Proc) {
		_, err = a.CallT(p, "b", "echo", "hi", time.Second)
	})
	e.Run()
	if err != nil {
		t.Fatalf("clean call failed: %v", err)
	}
	if net.Stats.Faulted != 0 {
		t.Fatalf("zero fault counted as injected: %+v", net.Stats)
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
			e, net, a := faultPair(t, faultinject.NewInjector(1, rules...))
			var took time.Duration
			e.Spawn("caller", func(p *sim.Proc) {
				start := p.Now()
				_, err = a.CallT(p, "b", "echo", "hi", time.Second)
				took = time.Duration(p.Now() - start)
			})
			e.Run()
			if !errors.Is(err, simnet.ErrUnreachable) {
				t.Fatalf("call returned %v, want ErrUnreachable", err)
			}
			if took != 10*time.Millisecond {
				t.Fatalf("refusal took %v, want one one-way latency (10ms)", took)
			}
			if net.Stats.Handlers != 0 || net.Stats.Refused != 1 {
				t.Fatalf("stats: %+v", net.Stats)
			}
		})
	}
}
