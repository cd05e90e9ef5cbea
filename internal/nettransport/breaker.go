package nettransport

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/transport"
)

// Per-peer circuit breakers. Every outbound call reports its
// transport-level outcome to the peer's breaker; a run of consecutive
// failures opens it, after which calls to that peer fail instantly
// with an ErrUnreachable-wrapped "circuit open" error instead of each
// burning a dial or call timeout. The fast-fail is transient under
// transport.Transient, so the grid layer's submit retries re-route
// around the peer rather than giving up.
//
// State machine (DESIGN.md §12):
//
//	closed ──(threshold consecutive failures)──▶ open
//	open ──(cooldown expires)──▶ half-open (exactly one probe admitted)
//	half-open ──probe fails──▶ open (cooldown doubled + jitter, capped)
//	half-open ──probe succeeds──▶ closed (cooldown reset)
//
// Only transport-level outcomes count: a handler error or a missing
// handler is a live, answering peer and closes the circuit like any
// success.

// Breaker states.
const (
	brClosed = iota
	brOpen
	brHalfOpen
)

var brStateNames = [...]string{"closed", "open", "half-open"}

type breakerSet struct {
	h  *Host
	mu sync.Mutex
	m  map[transport.Addr]*breaker
	// rng drives cooldown jitter only — recovery pacing, deliberately
	// outside the chaos determinism contract (DESIGN.md §12).
	rng *rand.Rand
}

type breaker struct {
	state    int
	consec   int
	cooldown time.Duration // current open window; doubles per reopen
	until    time.Time     // open: when a half-open probe is admitted
	probing  bool          // half-open: a probe call is in flight

	fails, oks, opens int64
}

func newBreakerSet(h *Host) *breakerSet {
	return &breakerSet{
		h:   h,
		m:   make(map[transport.Addr]*breaker),
		rng: rand.New(rand.NewSource(time.Now().UnixNano())),
	}
}

func (s *breakerSet) enabled() bool { return s.h.set.breakerThreshold > 0 }

func (s *breakerSet) get(addr transport.Addr) *breaker {
	b := s.m[addr]
	if b == nil {
		b = &breaker{}
		s.m[addr] = b
	}
	return b
}

// allow admits or fast-fails one call to addr. A non-nil error wraps
// transport.ErrUnreachable and must be returned to the caller without
// recording an outcome (no network operation happened).
func (s *breakerSet) allow(addr transport.Addr) error {
	if !s.enabled() {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.get(addr)
	switch b.state {
	case brOpen:
		if time.Now().Before(b.until) {
			return openErr(addr, b.until)
		}
		// Cooldown over: admit exactly one probe.
		b.state = brHalfOpen
		b.probing = true
		s.transition("half-open")
		return nil
	case brHalfOpen:
		if b.probing {
			return openErr(addr, b.until)
		}
		b.probing = true
		return nil
	}
	return nil
}

func openErr(addr transport.Addr, until time.Time) error {
	return fmt.Errorf("%w: circuit open to %s (retry in %s)",
		transport.ErrUnreachable, addr, time.Until(until).Round(time.Millisecond))
}

// record feeds one call's transport-level outcome back.
func (s *breakerSet) record(addr transport.Addr, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.get(addr)
	if ok {
		b.oks++
		b.probing = false
		if b.state != brClosed {
			b.state = brClosed
			s.transition("closed")
		}
		b.consec = 0
		b.cooldown = 0
		return
	}
	b.fails++
	b.probing = false
	switch b.state {
	case brHalfOpen:
		s.open(b)
	case brClosed:
		b.consec++
		if s.enabled() && b.consec >= s.h.set.breakerThreshold {
			s.open(b)
		}
	case brOpen:
		// A call already in flight when the circuit opened; the open
		// window is unchanged.
	}
}

// open (re)opens b: the first open uses the base cooldown, each reopen
// from half-open doubles it up to the cap, and every window gets up to
// 25% jitter so probes from many callers don't synchronize.
func (s *breakerSet) open(b *breaker) {
	b.state = brOpen
	b.opens++
	if b.cooldown == 0 {
		b.cooldown = s.h.set.breakerCooldown
	} else {
		b.cooldown *= 2
		if b.cooldown > s.h.set.breakerMaxCooldown {
			b.cooldown = s.h.set.breakerMaxCooldown
		}
	}
	jitter := time.Duration(s.rng.Int63n(int64(b.cooldown)/4 + 1))
	b.until = time.Now().Add(b.cooldown + jitter)
	s.transition("open")
}

// transition counts a state change in the host's metrics registry (a
// no-op without an attached obs sink). The registry caches counters by
// name, so resolving here keeps breaker setup independent of when —
// or whether — SetObs runs.
func (s *breakerSet) transition(to string) {
	if ro := s.h.obsv.Load(); ro != nil {
		ro.reg.Counter("rpc_breaker_transitions_total", "to", to).Inc()
	}
}

// down reports whether a call to addr would fast-fail right now,
// without mutating breaker state.
func (s *breakerSet) down(addr transport.Addr) bool {
	if !s.enabled() {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.m[addr]
	if b == nil {
		return false
	}
	switch b.state {
	case brOpen:
		return time.Now().Before(b.until)
	case brHalfOpen:
		return b.probing
	}
	return false
}

func (s *breakerSet) openCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, b := range s.m {
		if b.state == brOpen {
			n++
		}
	}
	return n
}

// Health snapshots every peer this host has called, sorted by address.
func (h *Host) Health() []transport.PeerHealth {
	s := h.brk
	s.mu.Lock()
	out := make([]transport.PeerHealth, 0, len(s.m))
	now := time.Now()
	for addr, b := range s.m {
		ph := transport.PeerHealth{
			Peer:        addr,
			State:       brStateNames[b.state],
			ConsecFails: b.consec,
			Failures:    b.fails,
			Successes:   b.oks,
			Opens:       b.opens,
		}
		if b.state == brOpen && b.until.After(now) {
			ph.RetryIn = b.until.Sub(now)
		}
		out = append(out, ph)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Peer < out[j].Peer })
	return out
}

// PeerDown reports whether calls to addr currently fast-fail (open
// circuit). The grid layer uses it to demote such peers in matchmaking
// and status probing (grid.Config.PeerDown).
func (h *Host) PeerDown(addr transport.Addr) bool {
	return h.brk.down(addr)
}
