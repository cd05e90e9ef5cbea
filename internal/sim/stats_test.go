package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestRunUntilEmptyQueueAdvancesClock(t *testing.T) {
	e := NewEngine(1)
	e.RunUntil(Time(5 * time.Second))
	if e.Now() != Time(5*time.Second) {
		t.Fatalf("now = %v, want 5s", e.Now())
	}
	// A second call must not move the clock backwards.
	e.RunUntil(Time(3 * time.Second))
	if e.Now() != Time(5*time.Second) {
		t.Fatalf("now = %v after earlier deadline, want 5s", e.Now())
	}
}

func TestStopInsideFiringEvent(t *testing.T) {
	e := NewEngine(1)
	st := e.EnableStats()
	fired := false
	var victim *Event
	e.Schedule(time.Second, func() { victim.Stop() })
	victim = e.Schedule(2*time.Second, func() { fired = true })
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	e.Run()
	if fired {
		t.Fatal("stopped event fired")
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after Run, want 0", e.Pending())
	}
	if st.EventsStopped != 1 || st.EventsFired != 1 || st.EventsScheduled != 2 {
		t.Fatalf("stopped=%d fired=%d scheduled=%d", st.EventsStopped, st.EventsFired, st.EventsScheduled)
	}
}

func TestStopAfterFireDoesNotUnderflowPending(t *testing.T) {
	e := NewEngine(1)
	ev := e.Schedule(time.Second, func() {})
	e.Run()
	ev.Stop() // already fired: must be a no-op on the pending count
	ev.Stop() // and idempotent
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", e.Pending())
	}
	if e.Stats() != nil {
		t.Fatal("stats enabled without EnableStats")
	}
}

func TestStopSelfWhileFiring(t *testing.T) {
	// An event that stops itself mid-fire: it already left the heap, so
	// the pending count must not move.
	e := NewEngine(1)
	var self *Event
	self = e.Schedule(time.Second, func() { self.Stop() })
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", e.Pending())
	}
}

// liveQueued counts the queued events that have not been stopped, in
// the heap and the zero-delay lane alike.
func liveQueued(e *Engine) int {
	n := 0
	for _, part := range [][]*Event{e.queue.heap, e.queue.lane[e.queue.head:]} {
		for _, ev := range part {
			if !ev.stopped {
				n++
			}
		}
	}
	return n
}

func TestPendingMatchesQueueScan(t *testing.T) {
	e := NewEngine(9)
	var evs []*Event
	for i := 0; i < 200; i++ {
		evs = append(evs, e.Schedule(time.Duration(i%50)*time.Millisecond, func() {}))
	}
	for i := 0; i < 200; i += 3 {
		evs[i].Stop()
		evs[i].Stop() // double-stop must not double-decrement
	}
	if len(e.queue.lane) == 0 {
		t.Fatal("no zero-delay events in the lane")
	}
	if e.Pending() != liveQueued(e) {
		t.Fatalf("Pending = %d, queue scan = %d", e.Pending(), liveQueued(e))
	}
	e.RunFor(20 * time.Millisecond)
	if e.Pending() != liveQueued(e) {
		t.Fatalf("after partial run: Pending = %d, queue scan = %d", e.Pending(), liveQueued(e))
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after drain, want 0", e.Pending())
	}
}

func TestParkedAcrossKillAndRestart(t *testing.T) {
	e := NewEngine(1)
	st := e.EnableStats()
	worker := func(p *Proc) { p.Await(-1) }
	p := e.Spawn("w1", worker)
	e.Run()
	if e.Parked() != 1 {
		t.Fatalf("Parked = %d, want 1", e.Parked())
	}
	p.Kill()
	e.Run()
	if e.Parked() != 0 {
		t.Fatalf("Parked = %d after kill, want 0", e.Parked())
	}
	e.Spawn("w2", worker)
	e.Run()
	if e.Parked() != 1 {
		t.Fatalf("Parked = %d after restart, want 1", e.Parked())
	}
	if st.Spawns != 2 || st.Kills != 1 {
		t.Fatalf("spawns=%d kills=%d, want 2/1", st.Spawns, st.Kills)
	}
	if st.PeakProcs != 1 {
		t.Fatalf("PeakProcs = %d, want 1 (never two alive at once)", st.PeakProcs)
	}
	e.Shutdown()
}

func TestStatsCounts(t *testing.T) {
	e := NewEngine(5)
	st := e.EnableStats()
	rx := e.Spawn("rx", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Await(-1)
		}
	})
	e.Spawn("tx", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(time.Second)
			rx.Waker()()
		}
	})
	e.Run()
	if st.EventsFired+st.EventsStopped != st.EventsScheduled {
		t.Fatalf("fired %d + stopped %d != scheduled %d",
			st.EventsFired, st.EventsStopped, st.EventsScheduled)
	}
	if st.Switches != st.Spawns+st.Wakes {
		t.Fatalf("switches %d != spawns %d + wakes %d", st.Switches, st.Spawns, st.Wakes)
	}
	if st.PeakProcs != 2 {
		t.Fatalf("PeakProcs = %d, want 2", st.PeakProcs)
	}
	if st.PeakQueue < 1 {
		t.Fatalf("PeakQueue = %d", st.PeakQueue)
	}
	if st.VirtNS != int64(e.Now()) {
		t.Fatalf("VirtNS = %d, now = %d", st.VirtNS, int64(e.Now()))
	}
	if got := st.Report(); !strings.Contains(got, "events fired") {
		t.Fatalf("Report missing summary: %q", got)
	}
}

func TestTaggedAttributionInherits(t *testing.T) {
	e := NewEngine(1)
	st := e.EnableStats()
	e.Tagged("alpha", func() {
		e.Schedule(time.Second, func() {
			// Scheduled while an alpha event fires: inherits alpha.
			e.Schedule(time.Second, func() {})
		})
	})
	e.Schedule(time.Second, func() {}) // outside any Tagged scope
	e.Run()
	a := st.ByTag["alpha"]
	if a == nil || a.Scheduled != 2 || a.Fired != 2 {
		t.Fatalf("alpha bucket = %+v", a)
	}
	u := st.ByTag["untagged"]
	if u == nil || u.Fired != 1 {
		t.Fatalf("untagged bucket = %+v", u)
	}
	if st.TopTag() != "alpha" {
		t.Fatalf("TopTag = %q", st.TopTag())
	}
	ranked := st.RankedTags()
	if len(ranked) != 2 || ranked[0].Tag != "alpha" || ranked[1].Tag != "untagged" {
		t.Fatalf("RankedTags = %+v", ranked)
	}
}

func TestTaggedRestoresPreviousTag(t *testing.T) {
	e := NewEngine(1)
	st := e.EnableStats()
	e.Tagged("outer", func() {
		e.Tagged("inner", func() {
			e.Schedule(time.Second, func() {})
		})
		e.Schedule(time.Second, func() {})
	})
	e.Run()
	if st.ByTag["inner"].Fired != 1 || st.ByTag["outer"].Fired != 1 {
		t.Fatalf("buckets: inner=%+v outer=%+v", st.ByTag["inner"], st.ByTag["outer"])
	}
}

func TestStaleWakeCounted(t *testing.T) {
	e := NewEngine(1)
	st := e.EnableStats()
	// The sleeper dies before its 2s sleep timer fires; the timer's wake
	// then finds a dead proc and is rejected as stale.
	p := e.Spawn("sleeper", func(p *Proc) { p.Sleep(2 * time.Second) })
	e.Schedule(time.Second, func() { p.Kill() })
	e.Run()
	if st.StaleWakes == 0 {
		t.Fatal("expected at least one stale wake")
	}
	if st.Kills != 1 {
		t.Fatalf("Kills = %d, want 1", st.Kills)
	}
}

// TestStatsTimelineNeutral is the kernel-level half of the
// trace-neutrality invariant: the same seeded multi-proc scenario must
// produce an identical interleaving with stats enabled and disabled.
// (internal/grid's soak test pins the same property for a full grid.)
func TestStatsTimelineNeutral(t *testing.T) {
	run := func(stats bool) []string {
		e := NewEngine(42)
		if stats {
			e.EnableStats()
		}
		var log []string
		// Trace lines capture every park/wake/start/exit transition.
		e.Trace = func(format string, args ...any) {
			log = append(log, fmt.Sprintf(format, args...))
		}
		// The sink counts what the senders left, parking while there is
		// nothing: a wake while it runs would otherwise be lost.
		var sink *Proc
		sent := 0
		for i := 0; i < 4; i++ {
			name := string(rune('a' + i))
			e.Spawn(name, func(p *Proc) {
				for j := 0; j < 5; j++ {
					p.Sleep(time.Duration(p.Rand().Intn(900)) * time.Millisecond)
					sent++
					sink.Waker()()
				}
			})
		}
		sink = e.Spawn("sink", func(p *Proc) {
			for got := 0; got < 20; {
				if got == sent {
					p.Await(-1)
				}
				got = sent
			}
		})
		e.Run()
		return log
	}
	off, on := run(false), run(true)
	if len(off) == 0 {
		t.Fatal("no trace lines")
	}
	if len(off) != len(on) {
		t.Fatalf("trace length differs: off=%d on=%d", len(off), len(on))
	}
	for i := range off {
		if off[i] != on[i] {
			t.Fatalf("trace diverges at line %d: %q vs %q", i, off[i], on[i])
		}
	}
}
