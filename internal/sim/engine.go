// Package sim implements a deterministic discrete-event simulation
// kernel. Protocol code runs inside Procs — coroutines that execute one
// at a time under a virtual clock, so blocking-style code (sleep, RPC,
// channel receive) simulates exactly and reproducibly.
//
// Concurrency model: each Proc runs on an iter.Pull coroutine of the
// engine goroutine (the one calling Run). Waking a proc resumes it;
// parking yields back, so exactly one of them runs at any instant and a
// switch is a direct coroutine transfer, not a trip through the
// scheduler. Given a fixed seed and workload, every run produces an
// identical event order.
package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// Time is an instant of virtual time, in nanoseconds since the start of
// the simulation.
type Time int64

// Add returns the instant d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration from u to t.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Seconds returns the instant as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(time.Second) }

func (t Time) String() string { return time.Duration(t).String() }

// Event is a scheduled occurrence. Stop cancels it if it has not fired.
type Event struct {
	at      Time
	seq     uint64
	fire    func()
	index   int // heap slot, inLane, or offQueue (see queue)
	stopped bool
	eng     *Engine
	tag     string // attribution tag (see Engine.Tagged)
}

// Stop cancels the event. It is safe to call after the event has fired
// and idempotent on an already-stopped event. A timer stopped before it
// fires leaves the heap at once rather than waiting to be popped.
func (ev *Event) Stop() {
	if ev.stopped || ev.index == offQueue {
		return // already stopped, or fired
	}
	ev.stopped = true
	e := ev.eng
	if ev.index >= 0 {
		e.queue.remove(ev.index)
	}
	e.pending--
	if st := e.stats; st != nil {
		st.EventsStopped++
	}
}

// Engine is a discrete-event simulation driver. Create one with
// NewEngine; it is not safe for concurrent use from multiple OS threads
// outside the Proc discipline.
type Engine struct {
	now     Time
	seq     uint64
	cur     uint64 // sequence number of the event firing now, or last fired
	queue   queue
	pending int // uncancelled queued events (O(1) Pending)
	rng     *rand.Rand
	procs   map[*Proc]struct{}
	idle    []*coroutine // coroutines whose proc returned, for the next start
	procSeq uint64
	stopped bool
	failure any // panic value escaped from a proc

	// curTag is the attribution tag inherited by Schedule: the tag of
	// the currently-firing event, or whatever Tagged installed. Tags are
	// always tracked (a string copy per event) so enabling stats cannot
	// perturb anything; only the counting is gated on stats.
	curTag string
	stats  *Stats // nil until EnableStats

	// Trace, if non-nil, receives a line per context switch; useful when
	// debugging protocol interleavings.
	Trace func(format string, args ...any)
}

// NewEngine returns an engine whose randomness derives from seed.
func NewEngine(seed int64) *Engine {
	return &Engine{
		rng:   rand.New(rand.NewSource(seed)),
		procs: make(map[*Proc]struct{}),
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's master random stream. For independent
// streams (one per node), use NewRand.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// NewRand returns a new random stream seeded from the master stream, so
// per-node randomness is stable under changes elsewhere.
func (e *Engine) NewRand() *rand.Rand {
	return rand.New(rand.NewSource(e.rng.Int63()))
}

// Schedule registers fn to run in engine context (it must not block) at
// time now+d. Negative d is treated as zero. The event inherits the
// current attribution tag (see Tagged).
func (e *Engine) Schedule(d time.Duration, fn func()) *Event {
	ev := &Event{at: e.now, seq: e.seq, fire: fn, eng: e, tag: e.curTag}
	e.seq++
	if d > 0 {
		ev.at = e.now.Add(d)
		e.queue.pushHeap(ev)
	} else {
		e.queue.pushLane(ev)
	}
	e.queued(ev)
	return ev
}

// scheduleAt queues fn at instant at (not before now) under a sequence
// number reserved earlier, so it fires where an event scheduled then
// would have: the heap orders it among same-instant lane events by seq.
func (e *Engine) scheduleAt(at Time, seq uint64, fn func()) *Event {
	ev := &Event{at: at, seq: seq, fire: fn, eng: e, tag: e.curTag}
	e.queue.pushHeap(ev)
	e.queued(ev)
	return ev
}

// queued counts an event just pushed.
func (e *Engine) queued(ev *Event) {
	e.pending++
	if st := e.stats; st != nil {
		st.EventsScheduled++
		if n := e.queue.len(); n > st.PeakQueue {
			st.PeakQueue = n
		}
		st.tag(ev.tag).Scheduled++
	}
}

// Pending returns the number of scheduled (uncancelled) events. It is
// O(1): the engine maintains the count on Schedule, Stop, and pop, so
// hot loops may poll it freely.
func (e *Engine) Pending() int { return e.pending }

// Tagged runs fn with the given attribution tag installed, restoring
// the previous tag afterwards. Events scheduled inside fn — and,
// transitively, events scheduled while those events fire — are
// attributed to tag in the kernel stats. Tagging is always active so
// the virtual timeline is identical with stats on or off.
func (e *Engine) Tagged(tag string, fn func()) {
	prev := e.curTag
	e.curTag = tag
	fn()
	e.curTag = prev
}

// EnableStats attaches a fresh kernel stats collector and returns it.
// Call before running; the collector is cumulative across Run calls.
func (e *Engine) EnableStats() *Stats {
	e.stats = &Stats{ByTag: make(map[string]*TagStats)}
	return e.stats
}

// Stats returns the collector enabled by EnableStats, or nil.
func (e *Engine) Stats() *Stats { return e.stats }

// Stop makes Run return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Run processes events until none remain or Stop is called. It panics
// with the original value if any Proc panicked.
func (e *Engine) Run() {
	e.stopped = false
	defer e.measure()()
	for !e.stopped {
		ev := e.queue.next()
		if ev == nil {
			return
		}
		e.queue.take(ev)
		e.fireEvent(ev)
	}
}

// RunUntil processes events with timestamps <= deadline, then sets the
// clock to deadline (if it advanced that far).
func (e *Engine) RunUntil(deadline Time) {
	e.stopped = false
	defer e.measure()()
	for !e.stopped {
		ev := e.queue.next()
		if ev == nil {
			break
		}
		if ev.at > deadline {
			e.advance(deadline)
			return
		}
		e.queue.take(ev)
		e.fireEvent(ev)
	}
	if e.pending == 0 {
		e.advance(deadline)
	}
}

// advance moves the clock forward to t; it never moves it back.
func (e *Engine) advance(t Time) {
	if e.now < t {
		e.now = t
	}
}

// fireEvent runs one event just taken off the queue, unless it was
// stopped in the lane, under its attribution tag, counting it (and its
// wall cost) when stats are enabled. It panics if the event's proc did.
func (e *Engine) fireEvent(ev *Event) {
	if ev.stopped {
		return
	}
	e.pending--
	e.now = ev.at
	e.cur = ev.seq
	e.curTag = ev.tag
	if st := e.stats; st == nil {
		ev.fire()
	} else {
		st.EventsFired++
		t0 := time.Now()
		ev.fire()
		ts := st.tag(ev.tag)
		ts.Fired++
		ts.WallNS += time.Since(t0).Nanoseconds()
	}
	e.checkFailure()
}

// measure opens a wall/virtual-clock accounting window over one run
// loop; the returned closure closes it. A no-op without stats.
func (e *Engine) measure() func() {
	st := e.stats
	if st == nil {
		return func() {}
	}
	t0, v0 := time.Now(), e.now
	return func() {
		st.WallNS += time.Since(t0).Nanoseconds()
		st.VirtNS += int64(e.now - v0)
	}
}

// RunFor processes events for d of virtual time from now.
func (e *Engine) RunFor(d time.Duration) { e.RunUntil(e.now.Add(d)) }

// Parked returns the number of live procs currently blocked. A nonzero
// value when Run returns indicates procs waiting on conditions that can
// no longer occur (often intentional, e.g. servers awaiting requests).
func (e *Engine) Parked() int {
	n := 0
	for p := range e.procs {
		if p.state == pParked {
			n++
		}
	}
	return n
}

// Shutdown kills every live proc and ends every coroutine, so no
// goroutine outlives the engine. Call after Run when the engine will be
// discarded before process exit.
func (e *Engine) Shutdown() {
	for _, p := range SortProcs(e.procs) {
		p.Kill()
	}
	// Drain the kill events.
	e.Run()
	for _, co := range e.idle {
		co.stop()
	}
	e.idle = nil
}

// SortProcs returns the procs in a set ordered by creation, giving
// callers a deterministic iteration order.
func SortProcs(set map[*Proc]struct{}) []*Proc {
	out := make([]*Proc, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

func (e *Engine) checkFailure() {
	if e.failure != nil {
		f := e.failure
		e.failure = nil
		panic(fmt.Sprintf("sim: proc panic: %v", f))
	}
}

// trace reports one proc transition. Its arguments are boxed only when
// Trace is set, so a run without tracing allocates nothing here.
func (e *Engine) trace(what string, p *Proc) {
	if e.Trace != nil {
		e.Trace("%v %s %s", e.now, what, p.name)
	}
}
