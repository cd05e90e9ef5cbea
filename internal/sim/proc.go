package sim

import (
	"iter"
	"math/rand"
	"time"
)

type procState int

const (
	pStart  procState = iota // spawn event pending
	pActive                  // currently executing
	pParked                  // blocked awaiting a wake
	pDead                    // exited or killed
)

// Proc is a simulated process: it runs on a coroutine of the engine
// goroutine, exclusively, and blocks only through the primitives on this
// type. All methods must be called from the proc itself unless
// documented otherwise.
type Proc struct {
	e     *Engine
	id    uint64
	name  string // shown in Engine.Trace lines only
	state procState
	gen   uint64 // park generation; stale wakes are dropped
	seed  int64  // drawn at spawn; rng is built from it on first use
	rng   *rand.Rand
	co    *coroutine // runs the proc from its start event to its exit
	woke  wake       // the wake deliver hands to park

	killed  bool
	spawnEv *Event

	aw *await // set up by the first Await or Waker; most procs never wait
}

// await is a proc's Await in progress. Parking reserves one sequence
// number at the park instant, before the timer's. A wake at that
// instant, ahead of the reserved number, resumes the proc at it; any
// later wake resumes the proc one event after the waker's own. Nothing
// fires at the reserved number unless such an early wake claims it.
type await struct {
	gen   uint64 // the parked Await's generation; 0 when none
	at    Time   // the park instant
	seq   uint64 // the sequence number reserved at the park
	woken bool
	wake  func() // the proc's Waker, bound once
}

// waitState returns the proc's Await state, setting it up on first use.
func (p *Proc) waitState() *await {
	if p.aw == nil {
		p.aw = &await{}
		p.aw.wake = p.wakeAwait
	}
	return p.aw
}

// coroutine is an iter.Pull coroutine of the engine goroutine that runs
// procs one after another: when a proc returns, its coroutine joins the
// engine's idle list and the next proc to start reuses it. Reuse saves
// a goroutine per proc, and the race detector (Go 1.24) keeps ~5 KB for
// every coroutine that has ever ended, which one coroutine per proc
// turns into gigabytes over a long simulation under -race.
type coroutine struct {
	resume func() (struct{}, bool) // engine -> proc: run until the next park or exit
	stop   func()                  // ends the coroutine while it is idle
	yield  func(struct{}) bool     // proc -> engine
	p      *Proc                   // the proc to run next, or running
	fn     func(*Proc)
}

// coroutine returns an idle coroutine, or a new one.
func (e *Engine) coroutine() *coroutine {
	if n := len(e.idle); n > 0 {
		co := e.idle[n-1]
		e.idle = e.idle[:n-1]
		return co
	}
	co := &coroutine{}
	co.resume, co.stop = iter.Pull(func(yield func(struct{}) bool) {
		co.yield = yield
		for {
			co.p.run(co.fn)
			co.p, co.fn = nil, nil
			e.idle = append(e.idle, co)
			if !yield(struct{}{}) {
				return
			}
		}
	})
	return co
}

type wake struct {
	gen     uint64
	timeout bool
	killed  bool
}

// killedSignal unwinds a killed proc's stack.
type killedSignal struct{ p *Proc }

// Spawn starts fn as a new proc at the current instant.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	return e.SpawnAfter(0, name, fn)
}

// SpawnAfter starts fn as a new proc after delay d.
func (e *Engine) SpawnAfter(d time.Duration, name string, fn func(p *Proc)) *Proc {
	e.procSeq++
	p := &Proc{
		e:     e,
		id:    e.procSeq,
		name:  name,
		state: pStart,
		seed:  e.rng.Int63(),
	}
	e.procs[p] = struct{}{}
	if st := e.stats; st != nil && len(e.procs) > st.PeakProcs {
		st.PeakProcs = len(e.procs)
	}
	p.spawnEv = e.Schedule(d, func() {
		if p.state != pStart {
			return
		}
		p.state = pActive
		e.trace("start", p)
		if st := e.stats; st != nil {
			st.Spawns++
			st.Switches++
			st.tag(e.curTag).Switches++
		}
		p.co = e.coroutine()
		p.co.p, p.co.fn = p, fn
		p.co.resume()
	})
	return p
}

// Spawn starts a child proc; a convenience mirror of Engine.Spawn.
func (p *Proc) Spawn(name string, fn func(p *Proc)) *Proc {
	return p.e.Spawn(name, fn)
}

func (p *Proc) run(fn func(p *Proc)) {
	defer func() {
		if r := recover(); r != nil {
			// A kill unwinds the proc's stack, running its deferred calls
			// in proc context; anything else is a failure to report.
			if ks, ok := r.(killedSignal); !ok || ks.p != p {
				p.e.failure = r
			}
		}
		p.state = pDead
		delete(p.e.procs, p)
		p.e.trace("exit", p)
	}()
	fn(p)
}

// Engine returns the owning engine.
func (p *Proc) Engine() *Engine { return p.e }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.e.now }

// Rand returns this proc's private random stream, built on first use
// from the seed drawn at spawn, so a proc that never draws costs no
// source.
func (p *Proc) Rand() *rand.Rand {
	if p.rng == nil {
		p.rng = rand.New(rand.NewSource(p.seed))
	}
	return p.rng
}

// Killed reports whether the proc has been killed (observable from
// engine context; a killed proc itself unwinds before it could ask).
func (p *Proc) Killed() bool { return p.killed }

// nextGen starts a new park generation. Wake sources created afterward
// carry this generation; anything older is stale.
func (p *Proc) nextGen() uint64 {
	p.gen++
	return p.gen
}

// park yields to the engine and blocks until a wake arrives. It panics
// with killedSignal if the proc was killed.
func (p *Proc) park() wake {
	p.state = pParked
	p.e.trace("park", p)
	p.co.yield(struct{}{})
	w := p.woke
	p.woke = wake{}
	if w.killed {
		panic(killedSignal{p})
	}
	return w
}

// deliver hands a wake to a parked proc and runs it until its next
// yield. It must be called from engine context only. It reports whether
// the wake was accepted (false if stale or the proc is gone).
func (p *Proc) deliver(w wake) bool {
	if p.state != pParked || (!w.killed && w.gen != p.gen) {
		if st := p.e.stats; st != nil {
			st.StaleWakes++
		}
		return false
	}
	p.state = pActive
	p.e.trace("wake", p)
	if st := p.e.stats; st != nil {
		st.Switches++
		st.Wakes++
		st.tag(p.e.curTag).Switches++
	}
	p.woke = w
	p.co.resume()
	return true
}

// Sleep suspends the proc for d of virtual time.
func (p *Proc) Sleep(d time.Duration) {
	p.checkKilled()
	g := p.nextGen()
	p.e.Schedule(d, func() { p.deliver(wake{gen: g}) })
	p.park()
}

// Await parks the proc until its Waker is called or d passes, and
// reports whether it was woken; d < 0 waits without a bound. A wake
// resumes the proc at the waker's own instant. It costs what Sleep
// costs: one timer, and one event for the wake.
func (p *Proc) Await(d time.Duration) bool {
	p.checkKilled()
	a := p.waitState()
	e := p.e
	a.gen, a.at, a.seq, a.woken = p.nextGen(), e.now, e.seq, false
	e.seq++
	var timer *Event
	if d >= 0 {
		g := a.gen
		timer = e.Schedule(d, func() { p.deliver(wake{gen: g, timeout: true}) })
	}
	w := p.park()
	a.gen = 0
	if w.timeout {
		return false
	}
	if timer != nil {
		timer.Stop()
	}
	return true
}

// Waker returns the function that wakes the proc from the Await it is
// parked in; called at any other time it does nothing. It may be called
// from any proc or from engine context.
func (p *Proc) Waker() func() { return p.waitState().wake }

func (p *Proc) wakeAwait() {
	a := p.aw
	if a.gen == 0 || a.woken || p.state == pDead {
		return
	}
	a.woken = true
	g := a.gen
	fire := func() { p.deliver(wake{gen: g}) }
	e := p.e
	if e.now == a.at && e.cur < a.seq {
		// Early enough for the sequence number the park reserved.
		e.scheduleAt(a.at, a.seq, fire)
	} else {
		e.Schedule(0, fire)
	}
}

// Yield lets all other currently-runnable work proceed before resuming.
func (p *Proc) Yield() { p.Sleep(0) }

func (p *Proc) checkKilled() {
	if p.killed {
		panic(killedSignal{p})
	}
}

// Kill terminates the proc: immediately if it has not started, at its
// next blocking point if it is parked. Safe to call from any proc or
// engine context, including on an already-dead proc.
func (p *Proc) Kill() {
	if p.state == pDead || p.killed {
		return
	}
	p.killed = true
	if st := p.e.stats; st != nil {
		st.Kills++
	}
	switch p.state {
	case pStart:
		p.spawnEv.Stop()
		p.state = pDead
		delete(p.e.procs, p)
	case pParked, pActive:
		// pActive means self-kill or kill from another proc that will
		// yield before we park; the killed flag plus a nudge covers both.
		p.e.Schedule(0, func() { p.deliver(wake{killed: true}) })
	}
}
