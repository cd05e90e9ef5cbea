package sim

import (
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

// Proc is a simulated process: a goroutine that runs exclusively and
// blocks only through the primitives on this type. All methods must be
// called from the proc's own goroutine unless documented otherwise.
type Proc struct {
	e     *Engine
	id    uint64
	name  string
	state procState
	gen   uint64 // park generation; stale wakes are dropped
	wakes chan wake
	rng   *rand.Rand

	killed  bool
	spawnEv *Event
}

type wake struct {
	gen     uint64
	val     any
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
		wakes: make(chan wake),
		rng:   e.NewRand(),
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
		e.tracef("%v start %s", e.now, p.name)
		if st := e.stats; st != nil {
			st.Spawns++
			st.Switches++
			st.tag(e.curTag).Switches++
		}
		go p.run(fn)
		<-e.ctl
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
		p.e.tracef("%v exit %s", p.e.now, p.name)
		p.e.ctl <- struct{}{}
	}()
	fn(p)
}

// Engine returns the owning engine.
func (p *Proc) Engine() *Engine { return p.e }

// Name returns the proc's debug name.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.e.now }

// Rand returns this proc's private random stream.
func (p *Proc) Rand() *rand.Rand { return p.rng }

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
	p.e.tracef("%v park %s", p.e.now, p.name)
	p.e.ctl <- struct{}{}
	w := <-p.wakes
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
	p.e.tracef("%v wake %s", p.e.now, p.name)
	if st := p.e.stats; st != nil {
		st.Switches++
		st.Wakes++
		st.tag(p.e.curTag).Switches++
	}
	p.wakes <- w
	<-p.e.ctl
	return true
}

// Sleep suspends the proc for d of virtual time.
func (p *Proc) Sleep(d time.Duration) {
	p.checkKilled()
	g := p.nextGen()
	p.e.Schedule(d, func() { p.deliver(wake{gen: g}) })
	p.park()
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
