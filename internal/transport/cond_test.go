package transport_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/nettransport"
	"repro/internal/sim"
	"repro/internal/simhost"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// backing runs the activities of one test body on one Runtime
// implementation.
type backing interface {
	// Go starts an activity; it may be called from inside another.
	Go(fn func(rt transport.Runtime))
	// Run lets the started activities run for at most limit of the
	// backing's clock and reports whether all of them returned.
	Run(limit time.Duration) bool
}

type simBacking struct {
	e             *sim.Engine
	h             *simhost.Host
	started, done int
}

func newSimBacking() *simBacking {
	e := sim.NewEngine(1)
	return &simBacking{e: e, h: simhost.New(simnet.New(e).NewEndpoint("a"))}
}

func (b *simBacking) Go(fn func(rt transport.Runtime)) {
	b.started++
	b.h.Go("activity", func(rt transport.Runtime) {
		fn(rt)
		b.done++
	})
}

func (b *simBacking) Run(limit time.Duration) bool {
	b.e.RunUntil(b.e.Now().Add(limit))
	return b.done == b.started
}

type liveBacking struct {
	h  *nettransport.Host
	wg sync.WaitGroup
}

func newLiveBacking(t *testing.T) *liveBacking {
	h, err := nettransport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	return &liveBacking{h: h}
}

func (b *liveBacking) Go(fn func(rt transport.Runtime)) {
	b.wg.Add(1)
	b.h.Go("activity", func(rt transport.Runtime) {
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

// onBoth runs body once on the simulator, which is deterministic, and
// 1000 times on the live transport, where a lost wake-up is a race.
func onBoth(t *testing.T, body func(t *testing.T, b backing)) {
	t.Run("sim", func(t *testing.T) {
		b := newSimBacking()
		defer b.e.Shutdown()
		body(t, b)
	})
	t.Run("live", func(t *testing.T) {
		b := newLiveBacking(t)
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
	onBoth(t, func(t *testing.T, b backing) {
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
	onBoth(t, func(t *testing.T, b backing) {
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
	onBoth(t, func(t *testing.T, b backing) {
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
	b := newSimBacking()
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
		b.h.Endpoint().Crash()
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
