// Package transport defines the execution and messaging interfaces that
// all protocol code (Chord, CAN, RN-Tree, the grid layer) is written
// against. Two implementations exist: a simnet.Endpoint binds protocols
// to the deterministic simulator, and a nettransport.Host binds them
// to real TCP sockets. Both meet one contract, which this package's
// conformance test runs on each. Protocol packages therefore contain
// no knowledge of whether time is virtual or wall-clock.
package transport

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"time"
)

// Addr names a host. Under simulation it is a symbolic name ("n042");
// over TCP it is a dialable "host:port".
type Addr string

// Sentinel errors surfaced by Call. Implementations report their
// failures as these so protocol code can branch portably.
var (
	ErrTimeout     = errors.New("transport: call timed out")
	ErrUnreachable = errors.New("transport: destination unreachable")
	ErrNoHandler   = errors.New("transport: no handler for method")
	// ErrDown reports a host that is not serving: the local host after
	// Close, or a remote peer that answered a call by declaring itself
	// closed (the live transport's down-peer reply maps here).
	ErrDown = errors.New("transport: host is down")
)

// Transient reports whether err is a delivery-level failure worth
// retrying elsewhere (the peer may be dead, restarting, or partitioned
// away) as opposed to a definitive answer from a live handler. Callers
// use it to classify retry policy: transient errors re-route and
// retry; everything else is the application's to interpret.
func Transient(err error) bool {
	return errors.Is(err, ErrTimeout) || errors.Is(err, ErrUnreachable) || errors.Is(err, ErrDown)
}

// Jitter spreads a periodic loop's sleep uniformly over [d/2, 3d/2) so
// rounds do not run in lock-step across nodes. The single draw comes
// from the caller's runtime stream, keeping simulation deterministic.
func Jitter(rt Runtime, d time.Duration) time.Duration {
	return d/2 + time.Duration(rt.Rand().Int63n(int64(d)))
}

// Fault is an injected fate for one message. The zero value delivers
// the message normally. At most one of Drop, Refuse and Reset is set;
// Delay and Duplicate may combine.
type Fault struct {
	// Drop loses the message in transit: the caller burns its timeout.
	Drop bool
	// Refuse and Reset fail the call as unreachable and keep the
	// request off the peer: a refused connect, or a connection cut in
	// the middle of the request frame.
	Refuse bool
	Reset  bool
	// Delay adds one-way latency before the message goes out.
	Delay time.Duration
	// Duplicate delivers a second copy, so the handler runs twice and
	// the caller keeps the first reply.
	Duplicate bool
}

// FaultInjector decides each message's Fault; both transports consult
// it once per message they send (the live one on outbound requests
// only, the simulator on requests and responses alike).
type FaultInjector interface {
	Fate(from, to Addr, method string, response bool) Fault
}

// FaultFunc adapts a function to the FaultInjector interface.
type FaultFunc func(from, to Addr, method string, response bool) Fault

// Fate implements FaultInjector.
func (f FaultFunc) Fate(from, to Addr, method string, response bool) Fault {
	return f(from, to, method, response)
}

// PeerHealth is one peer's circuit-breaker snapshot (grid.health RPC).
type PeerHealth struct {
	Peer        Addr
	State       string // closed | open | half-open
	ConsecFails int    // consecutive failures while closed
	Failures    int64  // cumulative transport-level failures
	Successes   int64
	Opens       int64         // times the circuit opened
	RetryIn     time.Duration // open only: until the next probe is admitted
}

// Handler serves one inbound request. It runs in its own execution
// context (a simulated proc or a real goroutine) and may block. Of an
// error it returns, only the message reaches the caller.
type Handler func(rt Runtime, from Addr, req any) (any, error)

// Host is one node's attachment to the network: a registry of RPC
// handlers plus the ability to start node-scoped activities. When the
// node crashes (simulation) or shuts down (live), its activities stop.
type Host interface {
	Addr() Addr
	Handle(method string, h Handler)
	// Go starts a named node-scoped activity. fn may block.
	Go(name string, fn func(rt Runtime))
	// Up reports whether the host is currently alive.
	Up() bool
}

// Runtime is the execution context handed to every activity and
// handler: a clock, a private random stream, and blocking RPC.
// Methods must be called only from the activity that owns the Runtime.
type Runtime interface {
	// Now returns elapsed time since the epoch of the underlying clock
	// (simulation start or process start).
	Now() time.Duration
	// Sleep suspends the activity.
	Sleep(d time.Duration)
	// Rand returns the activity's private random stream.
	Rand() *rand.Rand
	// Call performs a blocking RPC with the transport's default timeout.
	Call(to Addr, method string, req any) (any, error)
	// CallT performs a blocking RPC with an explicit timeout; one that
	// is not positive selects the transport's default.
	CallT(to Addr, method string, req any, timeout time.Duration) (any, error)
	// Wait parks the activity until c is broadcast or max passes and
	// reports which (see Cond for the contract). c.L must be held; it
	// is released while parked and held again on return.
	Wait(c *Cond, max time.Duration) (signalled bool)
}

// Forever is the Runtime.Wait bound of a wait that has no deadline.
const Forever = time.Duration(math.MaxInt64)

// Cond is how protocol code waits for another activity to change
// shared state ("wake me when X"): a condition bound to the mutex L
// that guards that state. The contract is sync.Cond's:
//
//	c.L.Lock()
//	defer c.L.Unlock()
//	for !condition() {
//		rt.Wait(c, transport.Forever)
//	}
//
// and whoever makes the condition true does so under L and calls
// Broadcast. The waiter registers while it still holds the lock it
// checked the condition under, so a broadcast between check and park
// cannot be lost. Hold L with a deferred Unlock: under simulation a
// crashed host's proc is killed while parked and unwinds through Wait,
// which re-acquires L on that path too.
type Cond struct {
	L sync.Locker

	mu     sync.Mutex // guards parked and seq, so Broadcast need not hold L
	parked []parked
	seq    uint64
}

// parked is one registration: the waker, and the number unpark finds
// it by.
type parked struct {
	id   uint64
	wake func()
}

// Broadcast wakes every activity parked on c. L may be held or not.
func (c *Cond) Broadcast() {
	c.mu.Lock()
	ws := c.parked
	c.parked = nil
	c.mu.Unlock()
	for _, w := range ws {
		w.wake()
	}
}

// Park is the backing-independent half of Runtime.Wait, for Runtime
// implementations only: it registers wake (called at most once, by
// Broadcast, from any activity), releases L, runs block, which parks
// the caller until wake ran or the bound passed and reports which,
// and re-acquires L. The registration is dropped however block ends,
// a killed proc's unwind included.
func (c *Cond) Park(wake func(), block func() bool) (signalled bool) {
	c.mu.Lock()
	c.seq++
	id := c.seq
	c.parked = append(c.parked, parked{id, wake})
	c.mu.Unlock()
	c.L.Unlock()
	defer func() {
		// A registration Broadcast already took is a wake-up even when
		// block saw its timer first.
		if !c.unpark(id) {
			signalled = true
		}
		c.L.Lock()
	}()
	return block()
}

// unpark drops one registration, reporting whether it was still there.
func (c *Cond) unpark(id uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, w := range c.parked {
		if w.id == id {
			c.parked = append(c.parked[:i], c.parked[i+1:]...)
			return true
		}
	}
	return false
}
