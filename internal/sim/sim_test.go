package sim

import (
	"testing"
	"time"
)

func TestClockAdvancesThroughSleep(t *testing.T) {
	e := NewEngine(1)
	var wokeAt Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(5 * time.Second)
		wokeAt = p.Now()
	})
	e.Run()
	if wokeAt != Time(5*time.Second) {
		t.Fatalf("woke at %v, want 5s", wokeAt)
	}
	if e.Now() != Time(5*time.Second) {
		t.Fatalf("engine now %v, want 5s", e.Now())
	}
}

func TestEventOrdering(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.Schedule(3*time.Second, func() { order = append(order, 3) })
	e.Schedule(1*time.Second, func() { order = append(order, 1) })
	e.Schedule(2*time.Second, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
}

func TestSimultaneousEventsFireInScheduleOrder(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Second, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestEventStop(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.Schedule(time.Second, func() { fired = true })
	ev.Stop()
	e.Run()
	if fired {
		t.Fatal("stopped event fired")
	}
}

func TestRunUntilPausesAndResumes(t *testing.T) {
	e := NewEngine(1)
	var ticks []Time
	e.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 4; i++ {
			p.Sleep(time.Second)
			ticks = append(ticks, p.Now())
		}
	})
	e.RunUntil(Time(2 * time.Second))
	if len(ticks) != 2 {
		t.Fatalf("after RunUntil(2s): %d ticks", len(ticks))
	}
	if e.Now() != Time(2*time.Second) {
		t.Fatalf("now = %v", e.Now())
	}
	e.Run()
	if len(ticks) != 4 {
		t.Fatalf("after Run: %d ticks", len(ticks))
	}
}

func TestSpawnAfter(t *testing.T) {
	e := NewEngine(1)
	var started Time = -1
	e.SpawnAfter(7*time.Second, "late", func(p *Proc) { started = p.Now() })
	e.Run()
	if started != Time(7*time.Second) {
		t.Fatalf("started at %v", started)
	}
}

func TestInterleavedProcsDeterministic(t *testing.T) {
	run := func() []string {
		e := NewEngine(42)
		var log []string
		for i := 0; i < 5; i++ {
			name := string(rune('a' + i))
			e.Spawn(name, func(p *Proc) {
				for j := 0; j < 3; j++ {
					p.Sleep(time.Duration(p.Rand().Intn(1000)) * time.Millisecond)
					log = append(log, name)
				}
			})
		}
		e.Run()
		return log
	}
	a, b := run(), run()
	if len(a) != 15 {
		t.Fatalf("len = %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d: %v vs %v", i, a, b)
		}
	}
}

func TestKillParkedProc(t *testing.T) {
	e := NewEngine(1)
	reachedEnd := false
	cleaned := false
	var p *Proc
	p = e.Spawn("victim", func(pp *Proc) {
		defer func() { cleaned = true }()
		pp.Await(-1)
		reachedEnd = true
	})
	e.Spawn("killer", func(pp *Proc) {
		pp.Sleep(time.Second)
		p.Kill()
	})
	e.Run()
	if reachedEnd {
		t.Fatal("killed proc continued")
	}
	if !cleaned {
		t.Fatal("kill did not run the proc's deferred calls")
	}
	if len(e.procs) != 0 {
		t.Fatalf("%d procs leaked", len(e.procs))
	}
}

func TestKillBeforeStart(t *testing.T) {
	e := NewEngine(1)
	started := false
	p := e.SpawnAfter(time.Second, "never", func(*Proc) { started = true })
	p.Kill()
	e.Run()
	if started {
		t.Fatal("killed-before-start proc ran")
	}
}

func TestKillIdempotent(t *testing.T) {
	e := NewEngine(1)
	p := e.Spawn("x", func(p *Proc) { p.Sleep(time.Hour) })
	e.Schedule(time.Second, func() { p.Kill(); p.Kill() })
	e.Run()
	if len(e.procs) != 0 {
		t.Fatal("proc leaked")
	}
}

func TestKilledProcSleepUnwinds(t *testing.T) {
	e := NewEngine(1)
	var last Time
	p := e.Spawn("loop", func(p *Proc) {
		for {
			p.Sleep(time.Second)
			last = p.Now()
		}
	})
	e.Schedule(3500*time.Millisecond, func() { p.Kill() })
	e.Run()
	if last != Time(3*time.Second) {
		t.Fatalf("last tick %v, want 3s", last)
	}
}

func TestProcPanicPropagates(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("boom", func(p *Proc) {
		p.Sleep(time.Second)
		panic("kaboom")
	})
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("panic did not propagate to Run")
		}
	}()
	e.Run()
}

func TestShutdownKillsParked(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 3; i++ {
		e.Spawn("waiter", func(p *Proc) { p.Await(-1) })
	}
	e.Run()
	if e.Parked() != 3 {
		t.Fatalf("parked = %d", e.Parked())
	}
	e.Shutdown()
	if len(e.procs) != 0 {
		t.Fatalf("%d procs after shutdown", len(e.procs))
	}
}

func TestYield(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.Spawn("a", func(p *Proc) {
		order = append(order, "a1")
		p.Yield()
		order = append(order, "a2")
	})
	e.Spawn("b", func(p *Proc) {
		order = append(order, "b1")
	})
	e.Run()
	want := []string{"a1", "b1", "a2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestNewRandStreamsIndependent(t *testing.T) {
	e := NewEngine(7)
	r1, r2 := e.NewRand(), e.NewRand()
	same := true
	for i := 0; i < 10; i++ {
		if r1.Int63() != r2.Int63() {
			same = false
		}
	}
	if same {
		t.Fatal("derived streams identical")
	}
}

func TestTimeHelpers(t *testing.T) {
	tm := Time(0).Add(1500 * time.Millisecond)
	if tm.Seconds() != 1.5 {
		t.Fatalf("Seconds = %v", tm.Seconds())
	}
	if tm.Sub(Time(time.Second)) != 500*time.Millisecond {
		t.Fatal("Sub wrong")
	}
	if tm.String() != "1.5s" {
		t.Fatalf("String = %q", tm.String())
	}
}

func TestPendingCount(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(time.Second, func() {})
	ev := e.Schedule(time.Second, func() {})
	ev.Stop()
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d", e.Pending())
	}
}

func TestStopHaltsRun(t *testing.T) {
	e := NewEngine(1)
	n := 0
	e.Spawn("loop", func(p *Proc) {
		for {
			p.Sleep(time.Second)
			n++
			if n == 5 {
				e.Stop()
			}
		}
	})
	e.Run()
	if n != 5 {
		t.Fatalf("n = %d", n)
	}
	e.Shutdown()
}

func TestManyProcsStress(t *testing.T) {
	e := NewEngine(3)
	const N = 500
	done := 0
	for i := 0; i < N; i++ {
		e.Spawn("w", func(p *Proc) {
			for j := 0; j < 20; j++ {
				p.Sleep(time.Duration(p.Rand().Intn(100)) * time.Millisecond)
			}
			done++
		})
	}
	e.Run()
	if done != N {
		t.Fatalf("done = %d", done)
	}
}
