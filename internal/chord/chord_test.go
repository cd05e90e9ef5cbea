package chord_test

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"time"

	"repro/internal/chord"
	"repro/internal/ids"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// ring is a simulated Chord deployment for tests.
type ring struct {
	t     *testing.T
	e     *sim.Engine
	net   *simnet.Net
	nodes []*chord.Node
	hosts []*simnet.Endpoint
}

func newRing(t *testing.T, seed int64) *ring {
	e := sim.NewEngine(seed)
	net := simnet.New(e)
	net.Latency = simnet.UniformLatency{Min: 5 * time.Millisecond, Max: 20 * time.Millisecond}
	return &ring{t: t, e: e, net: net}
}

func (r *ring) addNode(cfg chord.Config) *chord.Node {
	addr := transport.Addr(fmt.Sprintf("n%03d", len(r.nodes)))
	h := r.net.NewEndpoint(addr)
	n := chord.New(h, cfg)
	r.nodes = append(r.nodes, n)
	r.hosts = append(r.hosts, h)
	return n
}

// do runs fn inside a proc on node i's host and drives the sim until it
// finishes (plus any background work already queued).
func (r *ring) do(i int, fn func(rt transport.Runtime)) {
	done := false
	r.hosts[i].Go("test", func(rt transport.Runtime) {
		defer func() { done = true }()
		fn(rt)
	})
	for !done {
		r.e.RunFor(time.Second)
	}
}

func (r *ring) shutdown() {
	r.e.Shutdown()
}

// sortedLive returns live nodes ordered by ID.
func (r *ring) sortedLive() []*chord.Node {
	var out []*chord.Node
	for i, n := range r.nodes {
		if r.hosts[i].Up() {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID().Less(out[j].ID()) })
	return out
}

func TestSingleNodeOwnsEverything(t *testing.T) {
	r := newRing(t, 1)
	defer r.shutdown()
	n := r.addNode(chord.Config{})
	n.Create()
	for _, key := range []string{"a", "b", "c"} {
		key := key
		r.do(0, func(rt transport.Runtime) {
			owner, hops, err := n.Lookup(rt, ids.HashString(key))
			if err != nil {
				t.Errorf("lookup: %v", err)
				return
			}
			if owner.ID != n.ID() || hops != 0 {
				t.Errorf("owner=%s hops=%d", owner, hops)
			}
		})
	}
}

func TestSequentialJoinsFormCorrectRing(t *testing.T) {
	r := newRing(t, 2)
	defer r.shutdown()
	const N = 12
	first := r.addNode(chord.Config{})
	first.Create()
	first.Start()
	for i := 1; i < N; i++ {
		n := r.addNode(chord.Config{})
		r.do(i, func(rt transport.Runtime) {
			if err := n.Join(rt, "n000"); err != nil {
				t.Fatalf("join %d: %v", i, err)
			}
		})
		n.Start()
		r.e.RunFor(3 * time.Second) // let stabilization splice it in
	}
	r.e.RunFor(30 * time.Second)
	if err := chord.CheckRing(r.sortedLive()); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentJoins(t *testing.T) {
	r := newRing(t, 3)
	defer r.shutdown()
	const N = 8
	first := r.addNode(chord.Config{})
	first.Create()
	first.Start()
	for i := 1; i < N; i++ {
		n := r.addNode(chord.Config{})
		i := i
		r.hosts[i].Go("join", func(rt transport.Runtime) {
			// All join through n000 at roughly the same time.
			rt.Sleep(time.Duration(i) * 10 * time.Millisecond)
			if err := n.Join(rt, "n000"); err != nil {
				t.Errorf("join %d: %v", i, err)
				return
			}
			n.Start()
		})
	}
	r.e.RunFor(60 * time.Second)
	if err := chord.CheckRing(r.sortedLive()); err != nil {
		t.Fatal(err)
	}
}

func TestWarmStartMatchesReference(t *testing.T) {
	r := newRing(t, 4)
	defer r.shutdown()
	for i := 0; i < 32; i++ {
		r.addNode(chord.Config{})
	}
	sorted := chord.WarmStart(r.nodes)
	if err := chord.CheckRing(r.sortedLive()); err != nil {
		t.Fatal(err)
	}
	// Every key's lookup agrees with the sorted-order reference.
	for trial := 0; trial < 50; trial++ {
		key := ids.HashString(fmt.Sprintf("key-%d", trial))
		want := sorted[chord.OwnerIndex(sorted, key)].ID()
		r.do(trial%len(r.nodes), func(rt transport.Runtime) {
			owner, _, err := r.nodes[trial%len(r.nodes)].Lookup(rt, key)
			if err != nil {
				t.Errorf("lookup: %v", err)
				return
			}
			if owner.ID != want {
				t.Errorf("key %s: owner %s, want %s", key.Short(), owner.ID.Short(), want.Short())
			}
		})
	}
}

func TestLookupHopsLogarithmic(t *testing.T) {
	r := newRing(t, 5)
	defer r.shutdown()
	const N = 128
	for i := 0; i < N; i++ {
		r.addNode(chord.Config{})
	}
	chord.WarmStart(r.nodes)
	total, count := 0, 0
	for trial := 0; trial < 100; trial++ {
		src := trial % N
		key := ids.HashString(fmt.Sprintf("hopkey-%d", trial))
		r.do(src, func(rt transport.Runtime) {
			_, hops, err := r.nodes[src].Lookup(rt, key)
			if err != nil {
				t.Errorf("lookup: %v", err)
				return
			}
			total += hops
			count++
		})
	}
	avg := float64(total) / float64(count)
	// Chord's expected path length is ~0.5*log2(N) = 3.5 for N=128.
	if avg > 1.5*math.Log2(N) {
		t.Fatalf("average hops %.2f too high for N=%d", avg, N)
	}
	t.Logf("avg hops = %.2f (0.5*log2 N = %.2f)", avg, 0.5*math.Log2(N))
}

func TestRingHealsAfterFailures(t *testing.T) {
	r := newRing(t, 6)
	defer r.shutdown()
	const N = 16
	for i := 0; i < N; i++ {
		r.addNode(chord.Config{})
	}
	chord.WarmStart(r.nodes)
	for _, n := range r.nodes {
		n.Start()
	}
	r.e.RunFor(5 * time.Second)
	// Kill 3 nodes, including adjacent ones in ID order.
	sorted := r.sortedLive()
	victims := []*chord.Node{sorted[2], sorted[3], sorted[9]}
	for _, v := range victims {
		for i, n := range r.nodes {
			if n == v {
				r.hosts[i].Crash()
			}
		}
	}
	r.e.RunFor(60 * time.Second)
	if err := chord.CheckRing(r.sortedLive()); err != nil {
		t.Fatal(err)
	}
	// Lookups from a survivor still resolve to live owners.
	liveIdx := -1
	for i, h := range r.hosts {
		if h.Up() {
			liveIdx = i
			break
		}
	}
	live := r.sortedLive()
	for trial := 0; trial < 20; trial++ {
		key := ids.HashString(fmt.Sprintf("post-fail-%d", trial))
		r.do(liveIdx, func(rt transport.Runtime) {
			owner, _, err := r.nodes[liveIdx].Lookup(rt, key)
			if err != nil {
				t.Errorf("lookup after failures: %v", err)
				return
			}
			found := false
			for _, n := range live {
				if n.ID() == owner.ID {
					found = true
				}
			}
			if !found {
				t.Errorf("owner %s is not a live node", owner)
			}
		})
	}
}

func TestLookupCountsRecorded(t *testing.T) {
	r := newRing(t, 7)
	defer r.shutdown()
	for i := 0; i < 8; i++ {
		r.addNode(chord.Config{})
	}
	chord.WarmStart(r.nodes)
	r.do(0, func(rt transport.Runtime) {
		for i := 0; i < 5; i++ {
			if _, _, err := r.nodes[0].Lookup(rt, ids.HashString(fmt.Sprint(i))); err != nil {
				t.Errorf("lookup: %v", err)
			}
		}
	})
	if r.nodes[0].Lookups != 5 {
		t.Fatalf("Lookups = %d", r.nodes[0].Lookups)
	}
}

func TestRefString(t *testing.T) {
	var z chord.Ref
	if !z.IsZero() || z.String() != "<none>" {
		t.Fatal("zero Ref misbehaves")
	}
	ref := chord.Ref{ID: ids.HashString("x"), Addr: "host:1"}
	if ref.IsZero() {
		t.Fatal("non-zero Ref reported zero")
	}
}

func TestOwnerIndexWraps(t *testing.T) {
	r := newRing(t, 8)
	defer r.shutdown()
	for i := 0; i < 8; i++ {
		r.addNode(chord.Config{})
	}
	sorted := chord.WarmStart(r.nodes)
	// A key above the highest ID wraps to index 0.
	var top ids.ID
	for i := range top {
		top[i] = 0xff
	}
	if got := chord.OwnerIndex(sorted, top); got != 0 {
		// Only if no node has the max ID, which SHA-1 of our names won't.
		t.Fatalf("OwnerIndex(max) = %d", got)
	}
}

func TestJoinUnreachableBootstrap(t *testing.T) {
	r := newRing(t, 9)
	defer r.shutdown()
	n := r.addNode(chord.Config{})
	r.do(0, func(rt transport.Runtime) {
		if err := n.Join(rt, "nowhere"); err == nil {
			t.Error("join to unreachable bootstrap succeeded")
		}
	})
}
