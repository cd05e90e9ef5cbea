package nettransport

import (
	"errors"
	"fmt"
	goruntime "runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/chord"
	"repro/internal/grid"
	"repro/internal/ids"
	"repro/internal/peer"
	"repro/internal/resource"
	"repro/internal/rntree"
	"repro/internal/transport"
	"repro/internal/wire"
)

func init() { wire.RegisterAll() }

// TestRuntimeRandSeedsOnFirstDraw: a runtime is made for every request
// served, so making one must not build a random source; two that do
// draw must not share a stream.
func TestRuntimeRandSeedsOnFirstDraw(t *testing.T) {
	a, b := (&Host{}).newRuntime(), (&Host{}).newRuntime()
	if a.rng != nil {
		t.Fatal("runtime seeded before its first draw")
	}
	if a.Rand() != a.Rand() {
		t.Fatal("Rand built a second source")
	}
	if a.Rand().Int63() == b.Rand().Int63() && a.Rand().Int63() == b.Rand().Int63() {
		t.Fatal("two runtimes draw the same stream")
	}
}

// TestLiveChordRing boots a real 5-node Chord ring over TCP and checks
// that lookups agree across nodes — the same protocol code the
// simulator runs, over real sockets.
func TestLiveChordRing(t *testing.T) {
	const N = 5
	cfg := chord.Config{
		StabilizeEvery:  50 * time.Millisecond,
		FixFingersEvery: 50 * time.Millisecond,
		CheckPredEvery:  100 * time.Millisecond,
	}
	hosts := make([]*Host, N)
	nodes := make([]*chord.Node, N)
	for i := 0; i < N; i++ {
		h, err := Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close()
		hosts[i] = h
		nodes[i] = chord.New(h, cfg)
	}
	nodes[0].Create()
	nodes[0].Start()
	// One joiner at a time, the next once the ring has closed around
	// the last: every successor pointer is then final, which is what
	// lookup agreement needs.
	for i := 1; i < N; i++ {
		joined := make(chan error, 1)
		hosts[i].Go("join", func(rt transport.Runtime) {
			err := nodes[i].Join(rt, hosts[0].Addr())
			if err == nil {
				nodes[i].Start()
				if !nodes[i].AwaitClosed(rt, 10*time.Second) {
					err = errors.New("ring did not close")
				}
			}
			joined <- err
		})
		if err := <-joined; err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}

	// All nodes agree on the owner of a set of keys.
	for k := 0; k < 5; k++ {
		key := ids.HashString(fmt.Sprintf("key%d", k))
		owners := map[string]bool{}
		for i := 0; i < N; i++ {
			rt := hosts[i].newRuntime()
			owner, _, err := nodes[i].Lookup(rt, key)
			if err != nil {
				t.Fatalf("lookup from %d: %v", i, err)
			}
			owners[string(owner.Addr)] = true
		}
		if len(owners) != 1 {
			t.Fatalf("key %d: disagreeing owners %v", k, owners)
		}
	}
}

// startGaps is a grid.Recorder keeping, per job, how long the run node
// took from enqueueing it to starting it (both stamps are the run
// node's own clock).
type startGaps struct {
	mu       sync.Mutex
	enqueued map[ids.ID]time.Duration
	gaps     []time.Duration
}

func (r *startGaps) Record(ev grid.Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch ev.Kind {
	case grid.EvEnqueued:
		r.enqueued[ev.JobID] = ev.At
	case grid.EvStarted:
		r.gaps = append(r.gaps, ev.At-r.enqueued[ev.JobID])
	}
}

// TestLiveGridJob runs real jobs through the full grid stack over TCP:
// inject -> owner -> matchmaking (RN-Tree over Chord) -> run node ->
// result. One job at a time on an idle grid, so each must start when
// it is enqueued: the executor waits on the queue, it does not poll.
func TestLiveGridJob(t *testing.T) {
	const N = 4
	cfg := peer.Config{
		Chord: chord.Config{
			StabilizeEvery:  50 * time.Millisecond,
			FixFingersEvery: 50 * time.Millisecond,
			CheckPredEvery:  100 * time.Millisecond,
		},
		Tree: rntree.Config{AggregateEvery: 100 * time.Millisecond},
		Grid: grid.Config{HeartbeatEvery: 200 * time.Millisecond},
	}

	rec := &startGaps{enqueued: make(map[ids.ID]time.Duration)}
	peers := make([]*peer.Peer, N)
	for i := range peers {
		h, err := Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close()
		peers[i] = peer.New(h, resource.Vector{float64(2 + i), 1024, 50}, "linux", rec, cfg)
	}
	if err := peers[0].LaunchWait(""); err != nil {
		t.Fatal(err)
	}
	launched := make(chan error, N)
	for _, p := range peers[1:] {
		go func() { launched <- p.LaunchWait(peers[0].Host.Addr()) }()
	}
	for range peers[1:] {
		if err := <-launched; err != nil {
			t.Fatal(err)
		}
	}
	client := peers[0].Grid

	const jobs = 1000
	goroutines := goruntime.NumGoroutine()
	done := make(chan error, 1)
	peers[0].Host.Go("client", func(rt transport.Runtime) {
		for j := 0; j < jobs; j++ {
			if _, err := client.Submit(rt, grid.JobSpec{}); err != nil {
				done <- err
				return
			}
			if left := client.AwaitAll(rt, rt.Now()+20*time.Second); left != 0 {
				done <- fmt.Errorf("job %d: %d jobs unfinished", j, left)
				return
			}
		}
		done <- nil
	})
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("live grid jobs timed out")
	}
	// Every job's grid.report goroutine exits once its completion lands.
	// The last few may still be on their way out, as may the client
	// goroutine, and a new pooled connection adds its reader.
	const slack = 10
	for deadline := time.Now().Add(5 * time.Second); goruntime.NumGoroutine() > goroutines+slack; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after %d jobs, %d before them", goruntime.NumGoroutine(), jobs, goroutines)
		}
		time.Sleep(10 * time.Millisecond)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.gaps) < jobs {
		t.Fatalf("%d starts recorded for %d jobs", len(rec.gaps), jobs)
	}
	// A poll would spread the gaps evenly over its period; a wait puts
	// them all at scheduler latency. One in a hundred may be a host
	// hiccup (this runs under -race next to other packages' tests).
	slow, worst := 0, time.Duration(0)
	for _, gap := range rec.gaps {
		if gap >= 20*time.Millisecond {
			slow++
		}
		if gap > worst {
			worst = gap
		}
	}
	if slow > len(rec.gaps)/100 {
		t.Fatalf("%d of %d jobs took 20 ms or more from enqueue to start on an idle grid (worst %v)",
			slow, len(rec.gaps), worst)
	}
}
