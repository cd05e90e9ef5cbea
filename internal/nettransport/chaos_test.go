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
// calls run under the given fault injector. The handler counts its
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

// every injects f into every outbound call of the named method ("" =
// all methods).
func every(method string, f transport.Fault) Opts {
	return Opts{
		Chaos: transport.FaultFunc(func(_, _ transport.Addr, m string, _ bool) transport.Fault {
			if method != "" && m != method {
				return transport.Fault{}
			}
			return f
		}),
		BreakerThreshold: -1,
	}
}

func TestChaosRefuseKeepsRequestOffPeer(t *testing.T) {
	a, b, served := chaosPair(t, every("echo", transport.Fault{Refuse: true}))
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

// TestChaosBlackholeBurnsCallerTimeout: a dropped request is a
// blackhole, never sent, and the caller burns its whole timeout.
func TestChaosBlackholeBurnsCallerTimeout(t *testing.T) {
	a, b, served := chaosPair(t, every("", transport.Fault{Drop: true}))
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
	a, b, served := chaosPair(t, every("echo", transport.Fault{Reset: true}))
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

// TestChaosStall: a delay is a stall before the request is written.
func TestChaosStall(t *testing.T) {
	// A stall at least as long as the caller's budget is a timeout...
	a, b, _ := chaosPair(t, every("", transport.Fault{Delay: time.Second}))
	rt := a.newRuntime()
	if _, err := rt.CallT(b.Addr(), "echo", rntree.SearchReq{}, 80*time.Millisecond); err != transport.ErrTimeout {
		t.Fatalf("over-budget stall: err = %v, want ErrTimeout", err)
	}
	// ...while a shorter stall only delays the (successful) call.
	a2, b2, _ := chaosPair(t, every("", transport.Fault{Delay: 100 * time.Millisecond}))
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

// TestChaosDuplicateRunsHandlerTwice: a duplicated request reaches
// the handler twice, the caller gets one reply, and the second reply,
// to a call ID no longer pending, leaves nothing behind.
func TestChaosDuplicateRunsHandlerTwice(t *testing.T) {
	a, b, served := chaosPair(t, every("echo", transport.Fault{Duplicate: true}))
	resp, err := a.newRuntime().CallT(b.Addr(), "echo", rntree.SearchReq{K: 7}, 2*time.Second)
	if err != nil {
		t.Fatalf("duplicated call: %v", err)
	}
	if resp.(rntree.SearchResp).Visits != 7 {
		t.Fatalf("bad response: %+v", resp)
	}
	for deadline := time.Now().Add(2 * time.Second); served.Load() < 2 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if got := served.Load(); got != 2 {
		t.Fatalf("handler ran %d times for a duplicated request, want 2", got)
	}
	if n := a.pooledConn(b.Addr()).pendingCount(); n != 0 {
		t.Fatalf("%d calls still pending after the stray reply", n)
	}
	if resp, err := a.newRuntime().CallT(b.Addr(), "echo", rntree.SearchReq{K: 8}, 2*time.Second); err != nil || resp.(rntree.SearchResp).Visits != 8 {
		t.Fatalf("next call on the same connection: %+v, %v", resp, err)
	}
}
