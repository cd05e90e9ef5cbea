package transport_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/transport"
)

// onBothRepeated runs body on the conformance backings, once on the
// simulator, which is deterministic, and 1000 times on the live
// transport, where a lost wake-up is a race.
func onBothRepeated(t *testing.T, body func(t *testing.T, b backing)) {
	t.Run("sim", func(t *testing.T) {
		b := newSimBacking(nil, "a", "b")
		defer b.e.Shutdown()
		body(t, b)
	})
	t.Run("live", func(t *testing.T) {
		b := newLiveBacking(t, nil)
		for i := 0; i < 1000 && !t.Failed(); i++ {
			body(t, b)
		}
	})
}

// A broadcast issued after the waiter checked its condition and before
// it parked must wake it: the broadcaster is started only after the
// check, while the waiter still holds the lock, and the wait has no
// bound, so a lost wake-up is a hang.
func TestCondBroadcastBetweenCheckAndParkIsNotLost(t *testing.T) {
	onBothRepeated(t, func(t *testing.T, b backing) {
		var mu sync.Mutex
		c := transport.Cond{L: &mu}
		ready := false
		b.Go(func(rt transport.Runtime) {
			mu.Lock()
			defer mu.Unlock()
			b.Go(func(transport.Runtime) {
				mu.Lock()
				ready = true
				mu.Unlock()
				c.Broadcast()
			})
			for !ready {
				if !rt.Wait(&c, transport.Forever) {
					t.Error("unbounded wait reported expiry")
				}
			}
		})
		if !b.Run(10 * time.Second) {
			t.Fatal("waiter never woke: the broadcast was lost")
		}
		if n := c.Parked(); n != 0 {
			t.Fatalf("%d waiters left registered", n)
		}
	})
}

func TestCondWaitExpires(t *testing.T) {
	const max = 2 * time.Millisecond
	onBothRepeated(t, func(t *testing.T, b backing) {
		var mu sync.Mutex
		c := transport.Cond{L: &mu}
		b.Go(func(rt transport.Runtime) {
			mu.Lock()
			defer mu.Unlock()
			began := rt.Now()
			if rt.Wait(&c, max) {
				t.Error("wait with no broadcast reported a signal")
			}
			if waited := rt.Now() - began; waited < max {
				t.Errorf("returned after %v, before the %v bound", waited, max)
			}
			if mu.TryLock() {
				t.Error("lock not held on return")
			}
			if rt.Wait(&c, 0) {
				t.Error("zero bound reported a signal")
			}
		})
		if !b.Run(10 * time.Second) {
			t.Fatal("bounded wait never returned")
		}
		if n := c.Parked(); n != 0 {
			t.Fatalf("%d waiters left registered after expiry", n)
		}
	})
}

func TestCondBroadcastWakesEveryWaiter(t *testing.T) {
	const waiters = 8
	onBothRepeated(t, func(t *testing.T, b backing) {
		var mu sync.Mutex
		c := transport.Cond{L: &mu}
		var signalled atomic.Int32
		for i := 0; i < waiters; i++ {
			b.Go(func(rt transport.Runtime) {
				mu.Lock()
				defer mu.Unlock()
				// One Wait, no loop: each waiter returns only if the single
				// broadcast below reached it.
				if rt.Wait(&c, transport.Forever) {
					signalled.Add(1)
				}
			})
		}
		b.Go(func(rt transport.Runtime) {
			for c.Parked() < waiters {
				rt.Sleep(100 * time.Microsecond)
			}
			c.Broadcast()
		})
		if !b.Run(10 * time.Second) {
			t.Fatalf("one broadcast woke %d of %d waiters", signalled.Load(), waiters)
		}
		if got := signalled.Load(); got != waiters {
			t.Fatalf("%d of %d waiters reported the signal", got, waiters)
		}
	})
}

// A simulated host's crash kills a proc parked in Wait: the proc must
// unwind with its registration dropped and the lock released by the
// caller's deferred Unlock, because the node object outlives the crash.
func TestCondKilledSimProcLeaksNoWaiter(t *testing.T) {
	b := newSimBacking(nil, "a", "b")
	defer b.e.Shutdown()
	var mu sync.Mutex
	c := transport.Cond{L: &mu}
	unwound, returned := false, false
	b.Go(func(rt transport.Runtime) {
		defer func() { unwound = true }()
		mu.Lock()
		defer mu.Unlock()
		rt.Wait(&c, transport.Forever)
		returned = true
	})
	b.e.Schedule(time.Second, func() {
		if c.Parked() != 1 {
			t.Errorf("%d waiters parked before the crash, want 1", c.Parked())
		}
		b.a.Crash()
	})
	b.Run(2 * time.Second)
	if !unwound || returned {
		t.Fatalf("killed proc: unwound=%v returned=%v, want unwound only", unwound, returned)
	}
	if n := c.Parked(); n != 0 {
		t.Fatalf("%d waiters leaked by the killed proc", n)
	}
	if !mu.TryLock() {
		t.Fatal("killed proc left the lock held")
	}
}
