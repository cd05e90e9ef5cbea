package nettransport

import (
	"bufio"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rntree"
	"repro/internal/transport"
)

func (h *Host) inboundConns() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.conns)
}

func (h *Host) pooledConn(addr transport.Addr) *peerConn {
	h.pool.mu.Lock()
	e := h.pool.peers[addr]
	h.pool.mu.Unlock()
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.pc
}

// TestPooledConcurrentCalls multiplexes many overlapping requests over
// the single pooled connection and checks that every response pairs
// back to its own request ID.
func TestPooledConcurrentCalls(t *testing.T) {
	a, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.Handle("echo", func(rt transport.Runtime, from transport.Addr, req any) (any, error) {
		rt.Sleep(20 * time.Millisecond) // force the calls to overlap
		return rntree.SearchResp{Visits: req.(rntree.SearchReq).K}, nil
	})

	const N = 32
	var wg sync.WaitGroup
	errs := make([]error, N)
	for i := 0; i < N; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			rt := a.newRuntime()
			resp, err := rt.Call(b.Addr(), "echo", rntree.SearchReq{K: i})
			if err != nil {
				errs[i] = err
				return
			}
			if got := resp.(rntree.SearchResp).Visits; got != i {
				t.Errorf("call %d answered with %d: responses crossed", i, got)
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if n := b.inboundConns(); n != 1 {
		t.Fatalf("server saw %d connections for %d pooled concurrent calls, want 1", n, N)
	}
}

// TestPooledPeerRestart kills and revives the peer between calls: the
// stale pooled connection must be replaced transparently (the
// reconnect-on-error path) without surfacing an error to the caller.
func TestPooledPeerRestart(t *testing.T) {
	a, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	serve := func(addr string) *Host {
		h, err := Listen(addr)
		if err != nil {
			t.Fatalf("listen %s: %v", addr, err)
		}
		h.Handle("ping", func(rt transport.Runtime, from transport.Addr, req any) (any, error) {
			return rntree.SearchResp{Visits: 1}, nil
		})
		return h
	}
	b := serve("127.0.0.1:0")
	addr := b.Addr()
	rt := a.newRuntime()
	if _, err := rt.Call(addr, "ping", rntree.SearchReq{}); err != nil {
		t.Fatalf("first call: %v", err)
	}

	for round := 0; round < 3; round++ {
		b.Close()
		b = serve(string(addr))
		// No settling sleep on purpose: the pooled conn may or may not
		// have noticed the restart yet, exercising both the redial and
		// the write-failed retry paths across rounds.
		if _, err := rt.CallT(addr, "ping", rntree.SearchReq{}, 2*time.Second); err != nil {
			// Narrow race: the write can land in the instant between the
			// peer's FIN and the read loop noticing it; that surfaces as
			// one transient error, and the next call must redial cleanly.
			if !transport.Transient(err) {
				t.Fatalf("round %d: non-transient error across restart: %v", round, err)
			}
			if _, err2 := rt.CallT(addr, "ping", rntree.SearchReq{}, 2*time.Second); err2 != nil {
				t.Fatalf("round %d: call after redial: %v (first: %v)", round, err2, err)
			}
		}
	}
	b.Close()
}

// TestIdleReap checks both sides drop a connection with no traffic and
// nothing in flight, and that the next call transparently redials.
func TestIdleReap(t *testing.T) {
	set := settings{idleTimeout: 50 * time.Millisecond}
	a, err := listen("127.0.0.1:0", Opts{}, set)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := listen("127.0.0.1:0", Opts{}, set)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.Handle("ping", func(rt transport.Runtime, from transport.Addr, req any) (any, error) {
		return rntree.SearchResp{}, nil
	})

	rt := a.newRuntime()
	if _, err := rt.Call(b.Addr(), "ping", rntree.SearchReq{}); err != nil {
		t.Fatal(err)
	}
	if a.pooledConn(b.Addr()) == nil {
		t.Fatal("no pooled connection after a call")
	}
	deadline := time.Now().Add(2 * time.Second)
	for a.pooledConn(b.Addr()) != nil || b.inboundConns() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("idle connection not reaped: client pooled=%v server inbound=%d",
				a.pooledConn(b.Addr()) != nil, b.inboundConns())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := rt.Call(b.Addr(), "ping", rntree.SearchReq{}); err != nil {
		t.Fatalf("call after reap: %v", err)
	}
}

// TestCloseDrainsInflight is the regression for Close returning while
// handlers still run: Close must wait (bounded) for in-flight requests.
func TestCloseDrainsInflight(t *testing.T) {
	a, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	var finished atomic.Bool
	b.Handle("slow", func(rt transport.Runtime, from transport.Addr, req any) (any, error) {
		close(started)
		rt.Sleep(200 * time.Millisecond)
		finished.Store(true)
		return rntree.SearchResp{}, nil
	})

	go func() {
		rt := a.newRuntime()
		_, _ = rt.CallT(b.Addr(), "slow", rntree.SearchReq{}, 2*time.Second)
	}()
	<-started
	b.Close()
	if !finished.Load() {
		t.Fatal("Close returned before the in-flight handler finished")
	}
}

// TestSlowHandlerGetsReply covers the per-call deadline carried in the
// request envelope: a handler far slower than the server's idle window
// must still deliver its reply, because the response deadline derives
// from the caller's timeout, not a fixed server constant.
func TestSlowHandlerGetsReply(t *testing.T) {
	set := settings{idleTimeout: 50 * time.Millisecond}
	a, err := listen("127.0.0.1:0", Opts{}, set)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := listen("127.0.0.1:0", Opts{}, set)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.Handle("slow", func(rt transport.Runtime, from transport.Addr, req any) (any, error) {
		rt.Sleep(400 * time.Millisecond) // 8x the idle window
		return rntree.SearchResp{Visits: 7}, nil
	})

	rt := a.newRuntime()
	resp, err := rt.CallT(b.Addr(), "slow", rntree.SearchReq{}, 2*time.Second)
	if err != nil {
		t.Fatalf("slow handler reply lost: %v", err)
	}
	if resp.(rntree.SearchResp).Visits != 7 {
		t.Fatalf("wrong reply: %+v", resp)
	}

	// And when the caller gives up first, the client times out cleanly.
	if _, err := rt.CallT(b.Addr(), "slow", rntree.SearchReq{}, 100*time.Millisecond); !errors.Is(err, transport.ErrTimeout) {
		t.Fatalf("want ErrTimeout when caller deadline < handler time, got %v", err)
	}
}

// TestBadFrameGetsDownReply is the regression for serveConn returning
// silently on a decode failure: the server must answer with a
// connection-scoped down error (ID 0) before hanging up, and the client
// maps that to transport.ErrDown.
func TestBadFrameGetsDownReply(t *testing.T) {
	b, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	conn, err := net.Dial("tcp", string(b.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(2 * time.Second))
	// A length prefix followed by bytes that are not a gob frame.
	if _, err := conn.Write([]byte{0, 0, 0, 4, 0xde, 0xad, 0xbe, 0xef}); err != nil {
		t.Fatal(err)
	}
	f, err := readFrame(bufio.NewReader(conn), defaultMaxFrame)
	if err != nil {
		t.Fatalf("no error reply to bad frame: %v", err)
	}
	if f.ID != 0 || f.ErrKind != errDown {
		t.Fatalf("bad frame answered with ID=%d kind=%d, want connection-scoped down error", f.ID, f.ErrKind)
	}
	if got := mapCallErr(remoteDownError{}); !errors.Is(got, transport.ErrDown) {
		t.Fatalf("remote down reply maps to %v, want ErrDown", got)
	}
}
