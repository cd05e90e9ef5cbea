package nettransport

import (
	"bufio"
	"bytes"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/rntree"
	"repro/internal/transport"
)

// TestFrameLengthBound covers the decoder's length-prefix bound at
// every enforcement point: the raw reader, the sending encoder, and a
// live server rejecting an oversized inbound frame.
func TestFrameLengthBound(t *testing.T) {
	// Raw reader: a hostile length prefix is rejected from the header
	// alone, before any body allocation.
	hostile := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := readFrame(bytes.NewReader(hostile), defaultMaxFrame); err == nil ||
		!strings.Contains(err.Error(), "bad frame length") {
		t.Fatalf("readFrame(4GB prefix) = %v, want bad frame length", err)
	}
	if _, err := readFrame(bytes.NewReader([]byte{0, 0, 0, 0}), defaultMaxFrame); err == nil {
		t.Fatal("readFrame accepted a zero-length frame")
	}

	// Sender side: a payload beyond the local MaxFrame never reaches the
	// wire; the call fails transient.
	big := rntree.SearchReq{Exclude: transport.Addr(strings.Repeat("x", 8192))}
	b, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.Handle("echo", func(rt transport.Runtime, from transport.Addr, req any) (any, error) {
		return rntree.SearchResp{}, nil
	})
	small, err := listen("127.0.0.1:0", Opts{}, settings{maxFrame: 4096, breakerThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer small.Close()
	if _, err := small.newRuntime().Call(b.Addr(), "echo", big); !transport.Transient(err) {
		t.Fatalf("oversized send: err = %v, want transient", err)
	}

	// Receiver side: a server with a tight bound drops the connection on
	// an oversized frame; the sender's pending call fails as down.
	srv, err := listen("127.0.0.1:0", Opts{}, settings{maxFrame: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Handle("echo", func(rt transport.Runtime, from transport.Addr, req any) (any, error) {
		return rntree.SearchResp{}, nil
	})
	cl, err := listen("127.0.0.1:0", Opts{}, settings{breakerThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	rt := cl.newRuntime()
	if _, err := rt.Call(srv.Addr(), "echo", big); !transport.Transient(err) {
		t.Fatalf("frame over server bound: err = %v, want transient", err)
	}
	// A small frame still round-trips afterwards.
	if _, err := rt.Call(srv.Addr(), "echo", rntree.SearchReq{Queries: []rntree.Query{{K: 1}}}); err != nil {
		t.Fatalf("small frame after rejection: %v", err)
	}
}

// TestDialBackoffLimitsDials hammers a dead peer and checks the
// reconnect backoff collapses the dial storm: most calls fail fast from
// the suppression window instead of burning a TCP connect each.
func TestDialBackoffLimitsDials(t *testing.T) {
	a, err := listen("127.0.0.1:0", Opts{}, settings{
		breakerThreshold: -1, // isolate backoff from the breaker
		dialBackoff:      50 * time.Millisecond,
		dialBackoffMax:   200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	dead := deadAddr(t)
	rt := a.newRuntime()

	sawSuppressed := false
	for i := 0; i < 20; i++ {
		_, err := rt.CallT(dead, "echo", rntree.SearchReq{}, time.Second)
		if !transport.Transient(err) {
			t.Fatalf("call %d: err = %v, want transient", i, err)
		}
		if strings.Contains(err.Error(), "reconnect backoff") {
			sawSuppressed = true
		}
		time.Sleep(10 * time.Millisecond)
	}
	dials := a.pool.dials.Load()
	if dials < 1 {
		t.Fatal("no dial attempted at all")
	}
	// 20 calls over ~200ms against a 50ms-then-doubling window: without
	// suppression that is 20 dials; with it, a handful.
	if dials > 6 {
		t.Fatalf("%d dials for 20 calls; backoff not suppressing reconnects", dials)
	}
	if !sawSuppressed {
		t.Fatal("no call reported the backoff suppression window")
	}
}

// TestMidFrameResetDoesNotPoisonPending stages a peer that answers one
// multiplexed request, truncates the response to a second mid-frame,
// and dies. The answered call must succeed, the truncated one must fail
// transient, and the next call must recover on a fresh connection.
func TestMidFrameResetDoesNotPoisonPending(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	srvErr := make(chan error, 1)
	go func() {
		srvErr <- func() error {
			conn, err := ln.Accept()
			if err != nil {
				return err
			}
			br := bufio.NewReader(conn)
			f1, err := readFrame(br, defaultMaxFrame)
			if err != nil {
				return err
			}
			f2, err := readFrame(br, defaultMaxFrame)
			if err != nil {
				return err
			}
			var wmu sync.Mutex
			// Full response for the first request...
			if err := writeFrame(conn, &wmu, &frame{
				Kind: frameResp, ID: f1.ID, Payload: rntree.SearchResp{Answers: []rntree.Answer{{Visits: 1}}},
			}, time.Time{}, defaultMaxFrame); err != nil {
				return err
			}
			// ...then half a response for the second, and a dead socket.
			b, err := encodeFrame(&frame{
				Kind: frameResp, ID: f2.ID, Payload: rntree.SearchResp{Answers: []rntree.Answer{{Visits: 2}}},
			}, defaultMaxFrame)
			if err != nil {
				return err
			}
			if _, err := conn.Write(b[:len(b)/2]); err != nil {
				return err
			}
			conn.Close()
			// The client's next call redials; serve it properly.
			conn2, err := ln.Accept()
			if err != nil {
				return err
			}
			f3, err := readFrame(bufio.NewReader(conn2), defaultMaxFrame)
			if err != nil {
				return err
			}
			defer conn2.Close()
			return writeFrame(conn2, &wmu, &frame{
				Kind: frameResp, ID: f3.ID, Payload: rntree.SearchResp{Answers: []rntree.Answer{{Visits: 3}}},
			}, time.Time{}, defaultMaxFrame)
		}()
	}()

	a, err := listen("127.0.0.1:0", Opts{}, settings{breakerThreshold: -1, dialBackoff: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	peer := transport.Addr(ln.Addr().String())

	aDone := make(chan error, 1)
	a.Go("first", func(rt transport.Runtime) {
		resp, err := rt.CallT(peer, "echo", rntree.SearchReq{Queries: []rntree.Query{{K: 1}}}, 5*time.Second)
		if err == nil && resp.(rntree.SearchResp).Answers[0].Visits != 1 {
			t.Errorf("first call got %+v, want Visits 1", resp)
		}
		aDone <- err
	})
	time.Sleep(100 * time.Millisecond) // let the first request hit the wire first
	rt := a.newRuntime()
	_, bErr := rt.CallT(peer, "echo", rntree.SearchReq{Queries: []rntree.Query{{K: 2}}}, 5*time.Second)
	if !transport.Transient(bErr) {
		t.Fatalf("truncated call: err = %v, want transient", bErr)
	}
	if err := <-aDone; err != nil {
		t.Fatalf("multiplexed sibling call failed alongside the reset: %v", err)
	}

	// Fresh connection, full service: the pool recovered.
	resp, err := rt.CallT(peer, "echo", rntree.SearchReq{Queries: []rntree.Query{{K: 3}}}, 5*time.Second)
	if err != nil {
		t.Fatalf("call after reset: %v", err)
	}
	if resp.(rntree.SearchResp).Answers[0].Visits != 3 {
		t.Fatalf("recovery call got %+v, want Visits 3", resp)
	}
	if err := <-srvErr; err != nil {
		t.Fatalf("staged peer: %v", err)
	}
}
