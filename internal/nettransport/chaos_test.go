package nettransport

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rntree"
	"repro/internal/transport"
)

// Request-leg faults (drop, delay, duplicate, refuse, reset) meet the
// contract both transports share in internal/transport; these tests
// cover what they leave behind on a pooled connection.

// chaosPair boots a serving host b and a client host a that injects f
// into every outbound call of the named method, breakers off. The
// handler counts its invocations so tests can prove a fault kept a
// request off the peer.
func chaosPair(t *testing.T, method string, f transport.Fault) (a, b *Host, served *atomic.Int64) {
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
	chaos := transport.FaultFunc(func(_, _ transport.Addr, m string, _ bool) transport.Fault {
		if m != method {
			return transport.Fault{}
		}
		return f
	})
	a, err = listen("127.0.0.1:0", Opts{Chaos: chaos}, settings{breakerThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)
	return a, b, served
}

// TestChaosResetScopedByMethod injects a guaranteed mid-frame reset on
// one method: it must fail transient while a following call on an
// unmatched method redials and succeeds.
func TestChaosResetScopedByMethod(t *testing.T) {
	a, b, served := chaosPair(t, "echo", transport.Fault{Reset: true})
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

// TestChaosRefuseNamesTheInjection: an injected refusal says so, so an
// operator can tell it from a real one.
func TestChaosRefuseNamesTheInjection(t *testing.T) {
	a, b, _ := chaosPair(t, "echo", transport.Fault{Refuse: true})
	_, err := a.newRuntime().Call(b.Addr(), "echo", rntree.SearchReq{K: 1})
	if !transport.Transient(err) || !strings.Contains(err.Error(), "chaos") {
		t.Fatalf("refused call: err = %v, want a transient error naming the injection", err)
	}
}

// TestDuplicateReplyLeavesNothingPending: the second reply to a
// duplicated request, to a call ID no longer pending, leaves nothing
// behind, and the next call on the connection is fine.
func TestDuplicateReplyLeavesNothingPending(t *testing.T) {
	a, b, served := chaosPair(t, "echo", transport.Fault{Duplicate: true})
	if _, err := a.newRuntime().CallT(b.Addr(), "echo", rntree.SearchReq{K: 7}, 2*time.Second); err != nil {
		t.Fatalf("duplicated call: %v", err)
	}
	for deadline := time.Now().Add(2 * time.Second); served.Load() < 2 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := a.pooledConn(b.Addr()).pendingCount(); n != 0 {
		t.Fatalf("%d calls still pending after the stray reply", n)
	}
	if resp, err := a.newRuntime().CallT(b.Addr(), "echo", rntree.SearchReq{K: 8}, 2*time.Second); err != nil || resp.(rntree.SearchResp).Visits != 8 {
		t.Fatalf("next call on the same connection: %+v, %v", resp, err)
	}
}
