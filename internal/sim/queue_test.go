package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// queueModel drives an engine with a seeded random mix of Schedule
// (zero, negative and positive delays, from outside and from inside
// firing events), Stop (before and after firing, twice, on lane events,
// on the firing event itself) and RunUntil, and checks every step
// against the reference: the events not stopped, fired in (at, seq)
// order.
type queueModel struct {
	t     *testing.T
	seed  int64
	e     *Engine
	rng   *rand.Rand
	evs   []*modelEvent // in scheduling order, which is seq order
	limit int           // stop scheduling after this many events
}

type modelEvent struct {
	at      Time
	ev      *Event
	fired   bool
	stopped bool // stopped before it fired
}

func (m *queueModel) schedule(d time.Duration) {
	if len(m.evs) >= m.limit {
		return
	}
	me := &modelEvent{at: m.e.Now().Add(max(d, 0))}
	m.evs = append(m.evs, me)
	me.ev = m.e.Schedule(d, func() { m.fire(me) })
}

func (m *queueModel) stop(me *modelEvent) {
	me.ev.Stop()
	if !me.fired {
		me.stopped = true
	}
}

// next is the reference queue: the earliest event neither fired nor
// stopped, ties to the one scheduled first.
func (m *queueModel) next() *modelEvent {
	var best *modelEvent
	for _, me := range m.evs {
		if !me.fired && !me.stopped && (best == nil || me.at < best.at) {
			best = me
		}
	}
	return best
}

func (m *queueModel) pending() int {
	n := 0
	for _, me := range m.evs {
		if !me.fired && !me.stopped {
			n++
		}
	}
	return n
}

func (m *queueModel) fire(me *modelEvent) {
	m.t.Helper()
	if want := m.next(); want != me {
		m.fatalf("fired %s, reference fires %s", m.describe(me), m.describe(want))
	}
	if m.e.Now() != me.at {
		m.fatalf("%s fired with the clock at %v", m.describe(me), m.e.Now())
	}
	me.fired = true
	m.act(me)
}

func (m *queueModel) fatalf(format string, args ...any) {
	m.t.Helper()
	m.t.Fatalf("seed %d: "+format, append([]any{m.seed}, args...)...)
}

func (m *queueModel) describe(me *modelEvent) string {
	for i, x := range m.evs {
		if x == me {
			return fmt.Sprintf("event %d at %v", i, me.at)
		}
	}
	return "nothing"
}

// act makes a few random calls; self is the firing event, or nil
// between runs.
func (m *queueModel) act(self *modelEvent) {
	for n := m.rng.Intn(4); n > 0; n-- {
		switch m.rng.Intn(8) {
		case 0, 1:
			m.schedule(0)
		case 2:
			m.schedule(-time.Millisecond)
		case 3, 4:
			m.schedule(time.Duration(m.rng.Intn(6)) * time.Millisecond)
		case 5:
			if len(m.evs) > 0 {
				m.stop(m.evs[m.rng.Intn(len(m.evs))])
			}
		case 6:
			// The newest event: often still in the lane, sometimes twice.
			if len(m.evs) > 0 {
				last := m.evs[len(m.evs)-1]
				m.stop(last)
				if m.rng.Intn(2) == 0 {
					m.stop(last)
				}
			}
		case 7:
			if self != nil {
				m.stop(self)
			}
		}
		m.check()
	}
}

// check compares Pending with the reference and checks that a stopped
// event has left the heap and every heap slot knows its index.
func (m *queueModel) check() {
	m.t.Helper()
	if got, want := m.e.Pending(), m.pending(); got != want {
		m.fatalf("Pending = %d, reference %d", got, want)
	}
	for i, ev := range m.e.queue.heap {
		if ev.stopped || ev.index != i {
			m.fatalf("heap slot %d holds an event with index %d, stopped %v", i, ev.index, ev.stopped)
		}
	}
}

func TestQueueOrderMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		e := NewEngine(seed)
		var st *Stats
		if seed%2 == 0 {
			st = e.EnableStats()
		}
		m := &queueModel{t: t, seed: seed, e: e, rng: rand.New(rand.NewSource(seed)), limit: 600}
		for i := 0; i < 30; i++ {
			m.schedule(time.Duration(m.rng.Intn(25)) * time.Millisecond)
		}
		m.act(nil)
		for round := 0; round < 40; round++ {
			deadline := e.Now().Add(time.Duration(m.rng.Intn(4)) * time.Millisecond)
			e.RunUntil(deadline)
			if e.Now() != deadline {
				m.fatalf("clock %v after RunUntil(%v)", e.Now(), deadline)
			}
			if me := m.next(); me != nil && me.at <= deadline {
				m.fatalf("RunUntil(%v) left %s", deadline, m.describe(me))
			}
			m.check()
			m.act(nil)
		}
		e.Run()
		if me := m.next(); me != nil {
			m.fatalf("Run returned with %s unfired", m.describe(me))
		}
		if e.Pending() != 0 || e.queue.len() != 0 {
			m.fatalf("drained engine has Pending %d, %d queued", e.Pending(), e.queue.len())
		}
		if st != nil && st.EventsFired+st.EventsStopped != st.EventsScheduled {
			m.fatalf("fired %d + stopped %d != scheduled %d", st.EventsFired, st.EventsStopped, st.EventsScheduled)
		}
	}
}
