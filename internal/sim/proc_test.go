package sim

import (
	"runtime"
	"testing"
	"time"
)

// TestProcRandStreamUnchanged pins each proc's random stream to the seed
// drawn from the master stream at spawn, in spawn order, whether or not
// the proc ever draws and whenever it first does. Procs draw in the
// reverse of their spawn order and every other proc never draws, so a
// seed taken at first use would hand each drawing proc a different
// stream and leave the master stream at a different position.
func TestProcRandStreamUnchanged(t *testing.T) {
	const n, draws = 8, 5
	ref := NewEngine(11)
	want := make([][]int64, n)
	for i := range want {
		r := ref.NewRand()
		for j := 0; j < draws; j++ {
			want[i] = append(want[i], r.Int63())
		}
	}
	wantMaster := ref.Rand().Int63()

	e := NewEngine(11)
	got := make([][]int64, n)
	for i := 0; i < n; i++ {
		e.Spawn("p", func(p *Proc) {
			if i%2 == 1 {
				p.Sleep(time.Second)
				return
			}
			p.Sleep(time.Duration(n-i) * time.Second)
			for j := 0; j < draws; j++ {
				got[i] = append(got[i], p.Rand().Int63())
				p.Yield()
			}
		})
	}
	gotMaster := e.Rand().Int63()
	e.Run()

	for i := 0; i < n; i += 2 {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("proc %d draw %d = %d, want %d", i, j, got[i][j], want[i][j])
			}
		}
	}
	if gotMaster != wantMaster {
		t.Fatalf("master stream after %d spawns = %d, want %d", n, gotMaster, wantMaster)
	}
}

// TestSpawnExitAllocBytes bounds what a proc that never draws costs on
// the heap from spawn to exit: no random source, no new coroutine.
// simnet pays this on every delivered request.
func TestSpawnExitAllocBytes(t *testing.T) {
	const n = 1000
	e := NewEngine(1)
	// Warm up so the measurement sees steady-state spawns: the engine's
	// first coroutine is built here and reused by every proc below.
	e.Spawn("warm", func(*Proc) {})
	e.Run()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		e.Spawn("h", func(*Proc) {})
	}
	e.Run()
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / n
	t.Logf("spawn+exit: %d B per proc", per)
	if per >= 1024 {
		t.Fatalf("spawn+exit allocates %d B per proc, want < 1024", per)
	}
}

// TestShutdownReleasesGoroutines checks that procs that return hand
// their coroutine to the next proc instead of leaving a goroutine each,
// and that Shutdown ends every coroutine, idle or parked.
func TestShutdownReleasesGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	settled := func(what string, want int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > want {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines, want at most %d", what, runtime.NumGoroutine(), want)
			}
			runtime.Gosched()
		}
	}

	e := NewEngine(1)
	for round := 0; round < 3; round++ {
		for i := 0; i < 50; i++ {
			e.Spawn("done", func(p *Proc) { p.Sleep(time.Second) })
		}
		e.Run()
		settled("after procs returned", base+50)
	}
	e.Shutdown()
	settled("after Shutdown of returned procs", base)

	for i := 0; i < 50; i++ {
		e.Spawn("waiter", func(p *Proc) { p.Await(-1) })
	}
	e.Run()
	if e.Parked() != 50 {
		t.Fatalf("parked = %d, want 50", e.Parked())
	}
	e.Shutdown()
	settled("after Shutdown of parked procs", base)
}
