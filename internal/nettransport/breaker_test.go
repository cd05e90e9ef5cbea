package nettransport

import (
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/rntree"
	"repro/internal/transport"
)

// deadAddr reserves a TCP address and immediately closes the listener,
// so dials to it are refused by the OS.
func deadAddr(t *testing.T) transport.Addr {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return transport.Addr(addr)
}

// TestBreakerOpensAndFastFails drives consecutive transport failures to
// a dead peer past the threshold and checks the breaker then short-
// circuits without a dial, surfacing as a transient error the grid's
// retry classification re-routes.
func TestBreakerOpensAndFastFails(t *testing.T) {
	a, err := listen("127.0.0.1:0", Opts{}, settings{
		breakerThreshold: 3,
		breakerCooldown:  time.Minute, // never half-opens within the test
		dialBackoff:      -1,          // isolate the breaker from dial suppression
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	dead := deadAddr(t)
	rt := a.newRuntime()

	for i := 0; i < 3; i++ {
		if _, err := rt.CallT(dead, "echo", rntree.SearchReq{}, time.Second); !transport.Transient(err) {
			t.Fatalf("call %d to dead peer: err = %v, want transient", i, err)
		}
	}
	dialsBefore := a.pool.dials.Load()
	_, err = rt.CallT(dead, "echo", rntree.SearchReq{}, time.Second)
	if !transport.Transient(err) {
		t.Fatalf("call with open breaker: err = %v, want transient", err)
	}
	if !strings.Contains(err.Error(), "circuit open") {
		t.Fatalf("call with open breaker: err = %v, want circuit-open fast fail", err)
	}
	if got := a.pool.dials.Load(); got != dialsBefore {
		t.Fatalf("open breaker still dialed (%d -> %d dials)", dialsBefore, got)
	}

	if !a.PeerDown(dead) {
		t.Fatal("PeerDown(dead) = false with breaker open")
	}
	hs := a.Health()
	if len(hs) != 1 {
		t.Fatalf("Health() returned %d entries, want 1", len(hs))
	}
	h := hs[0]
	if h.Peer != dead || h.State != "open" || h.Opens != 1 || h.ConsecFails < 3 || h.RetryIn <= 0 {
		t.Fatalf("Health() = %+v, want open breaker for %s", h, dead)
	}
}

// TestBreakerRecoversHalfOpen lets the cooldown expire, revives the
// peer at the same address, and checks one successful probe closes the
// breaker again.
func TestBreakerRecoversHalfOpen(t *testing.T) {
	a, err := listen("127.0.0.1:0", Opts{}, settings{
		breakerThreshold: 2,
		breakerCooldown:  50 * time.Millisecond,
		dialBackoff:      -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	dead := deadAddr(t)
	rt := a.newRuntime()
	for i := 0; i < 2; i++ {
		if _, err := rt.CallT(dead, "echo", rntree.SearchReq{}, time.Second); err == nil {
			t.Fatalf("call %d to dead peer succeeded", i)
		}
	}
	if !a.PeerDown(dead) {
		t.Fatal("breaker did not open after threshold failures")
	}

	// Revive the peer at the same address. The OS may briefly refuse the
	// rebind; retry rather than flake.
	var b *Host
	for try := 0; ; try++ {
		b, err = Listen(string(dead))
		if err == nil {
			break
		}
		if try == 20 {
			t.Fatalf("rebinding %s: %v", dead, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	defer b.Close()
	b.Handle("echo", func(rt transport.Runtime, from transport.Addr, req any) (any, error) {
		return rntree.SearchResp{Answers: []rntree.Answer{{Visits: 1}}}, nil
	})

	// Past the cooldown (plus its <=25% jitter) a half-open probe goes
	// through and the success closes the breaker.
	time.Sleep(100 * time.Millisecond)
	var lastErr error
	for try := 0; try < 10; try++ {
		if _, lastErr = rt.CallT(dead, "echo", rntree.SearchReq{}, time.Second); lastErr == nil {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if lastErr != nil {
		t.Fatalf("probe after cooldown never succeeded: %v", lastErr)
	}
	if a.PeerDown(dead) {
		t.Fatal("PeerDown still true after successful probe")
	}
	hs := a.Health()
	if len(hs) != 1 || hs[0].State != "closed" || hs[0].Successes == 0 {
		t.Fatalf("Health() = %+v, want closed breaker with a success", hs)
	}
}
