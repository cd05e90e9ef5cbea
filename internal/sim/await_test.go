package sim

import (
	"testing"
	"time"
)

func TestAwaitWokenBeforeBound(t *testing.T) {
	e := NewEngine(1)
	var woken bool
	var at Time
	p := e.Spawn("waiter", func(p *Proc) {
		woken = p.Await(10 * time.Second)
		at = p.Now()
	})
	e.Schedule(3*time.Second, func() { p.Waker()() })
	e.Run()
	if !woken || at != Time(3*time.Second) {
		t.Fatalf("woken=%v at %v, want true at 3s", woken, at)
	}
	if e.Now() != Time(3*time.Second) {
		t.Fatalf("clock ran to %v: the bound's timer was not stopped", e.Now())
	}
}

func TestAwaitTimesOut(t *testing.T) {
	e := NewEngine(1)
	woken := true
	var at Time
	e.Spawn("waiter", func(p *Proc) {
		woken = p.Await(2 * time.Second)
		at = p.Now()
	})
	e.Run()
	if woken || at != Time(2*time.Second) {
		t.Fatalf("woken=%v at %v, want false at 2s", woken, at)
	}
}

func TestAwaitKilledWhileParkedUnwinds(t *testing.T) {
	e := NewEngine(1)
	unwound := false
	p := e.Spawn("waiter", func(p *Proc) {
		defer func() { unwound = true }()
		p.Await(-1)
		t.Error("Await returned to a killed proc")
	})
	e.Schedule(time.Second, func() { p.Kill() })
	e.Run()
	if !unwound || len(e.procs) != 0 {
		t.Fatalf("unwound=%v live procs=%d", unwound, len(e.procs))
	}
	p.Waker()() // after the kill: nothing to wake
	if e.Pending() != 0 {
		t.Fatalf("a waker called on a dead proc scheduled %d events", e.Pending())
	}
}

func TestAwaitWakeAfterTimeoutSchedulesNothing(t *testing.T) {
	e := NewEngine(1)
	var p *Proc
	p = e.Spawn("waiter", func(p *Proc) {
		p.Await(time.Second)
		p.Sleep(time.Hour)
	})
	e.RunFor(2 * time.Second)
	before := e.Pending()
	p.Waker()()
	if e.Pending() != before {
		t.Fatalf("a wake after the timeout scheduled %d events", e.Pending()-before)
	}
	e.Shutdown()
}

// A wake in the park instant, from an event queued before the park,
// resumes the waiter at the sequence number its park reserved: before
// an event the waker queues first.
func TestAwaitSameInstantWakeKeepsReservedOrder(t *testing.T) {
	e := NewEngine(1)
	var order []string
	var p *Proc
	p = e.Spawn("waiter", func(p *Proc) {
		p.Sleep(time.Second)
		p.Await(-1)
		order = append(order, "waiter")
	})
	e.Spawn("waker", func(q *Proc) {
		q.Sleep(time.Second) // fires after the waiter parks, before its pass
		e.Schedule(0, func() { order = append(order, "later") })
		p.Waker()()
	})
	e.Run()
	if len(order) != 2 || order[0] != "waiter" {
		t.Fatalf("order %v, want the waiter first", order)
	}
}
