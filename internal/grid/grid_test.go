package grid_test

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/ids"
	"repro/internal/match"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// recorder collects lifecycle events for assertions.
type recorder struct {
	mu  sync.Mutex
	evs []grid.Event
}

func (r *recorder) Record(ev grid.Event) {
	r.mu.Lock()
	r.evs = append(r.evs, ev)
	r.mu.Unlock()
}

func (r *recorder) count(kind grid.EventKind) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, ev := range r.evs {
		if ev.Kind == kind {
			n++
		}
	}
	return n
}

func (r *recorder) byJob(jobID ids.ID) []grid.Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []grid.Event
	for _, ev := range r.evs {
		if ev.JobID == jobID {
			out = append(out, ev)
		}
	}
	return out
}

// cluster is a simulated grid for tests, using the omniscient central
// matchmaker (grid mechanics under test, not matchmaking quality).
type cluster struct {
	e     *sim.Engine
	net   *simnet.Net
	hosts []*simnet.Endpoint
	nodes []*grid.Node
	reg   *match.Registry
	rec   *recorder
}

// switchableOverlay routes jobs to the first live owner in its list —
// a test double standing in for DHT re-keying after owner failure.
type switchableOverlay struct {
	owners []*simnet.Endpoint
}

func (o *switchableOverlay) RouteJobs(rt transport.Runtime, jobs []grid.Profile) []grid.Route {
	route := grid.Route{Err: fmt.Errorf("no live owner")}
	for _, ep := range o.owners {
		if ep.Up() {
			route = grid.Route{Owner: ep.Addr(), Hops: 1}
			break
		}
	}
	return slices.Repeat([]grid.Route{route}, len(jobs))
}

func newCluster(t *testing.T, n int, seed int64, cfg grid.Config, caps func(i int) (resource.Vector, string)) *cluster {
	return newClusterCfg(t, n, seed, func(int) grid.Config { return cfg }, caps)
}

// newClusterCfg builds a cluster with per-node grid configuration —
// the Byzantine soak needs saboteur hooks on some nodes only.
func newClusterCfg(t *testing.T, n int, seed int64, cfgFor func(i int) grid.Config, caps func(i int) (resource.Vector, string)) *cluster {
	return newClusterPrep(t, n, seed, cfgFor, caps, nil)
}

// newClusterPrep additionally invokes prep with each node's host and
// (mutable) grid config before grid.NewNode, so tests can attach
// host-bound services — a pub/sub broker, say — into the config. A
// non-nil Matchmaker return overrides the default central matcher.
func newClusterPrep(t *testing.T, n int, seed int64, cfgFor func(i int) grid.Config, caps func(i int) (resource.Vector, string), prep func(i int, h *simnet.Endpoint, cfg *grid.Config) grid.Matchmaker) *cluster {
	t.Helper()
	e := sim.NewEngine(seed)
	net := simnet.New(e)
	net.Latency = simnet.UniformLatency{Min: 5 * time.Millisecond, Max: 20 * time.Millisecond}
	c := &cluster{e: e, net: net, reg: match.NewRegistry(), rec: &recorder{}}
	overlay := &switchableOverlay{}
	for i := 0; i < n; i++ {
		h := net.NewEndpoint(transport.Addr(fmt.Sprintf("n%03d", i)))
		cv, os := caps(i)
		cfg := cfgFor(i)
		var matcher grid.Matchmaker = &match.Central{Reg: c.reg}
		if prep != nil {
			if m := prep(i, h, &cfg); m != nil {
				matcher = m
			}
		}
		if cfg.Trust != nil {
			matcher = &match.Trusted{Inner: matcher, Table: cfg.Trust}
		}
		gn := grid.NewNode(h, cv, os, overlay, matcher, c.rec, cfg)
		c.hosts = append(c.hosts, h)
		c.nodes = append(c.nodes, gn)
		overlay.owners = append(overlay.owners, h)
		c.reg.Register(h.Addr(), match.RegistryEntry{
			Caps: cv,
			OS:   os,
			Load: gn.QueueLen,
			Up:   h.Up,
		})
		gn.Start()
	}
	return c
}

func (c *cluster) do(i int, fn func(rt transport.Runtime)) {
	done := false
	c.hosts[i].Go("test", func(rt transport.Runtime) {
		defer func() { done = true }()
		fn(rt)
	})
	for !done {
		c.e.RunFor(time.Second)
	}
}

func uniform(i int) (resource.Vector, string) { return resource.Vector{5, 4096, 100}, "linux" }

func varied(i int) (resource.Vector, string) {
	return resource.Vector{float64(1 + i%10), float64(256 * (1 + i%8)), float64(10 * (1 + i%16))}, "linux"
}

func TestSingleJobLifecycle(t *testing.T) {
	c := newCluster(t, 4, 1, grid.Config{}, uniform)
	defer c.e.Shutdown()
	var jobID ids.ID
	c.do(0, func(rt transport.Runtime) {
		var err error
		jobID, err = c.nodes[0].Submit(rt, grid.JobSpec{Work: 3 * time.Second})
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		if left := c.nodes[0].AwaitAll(rt, rt.Now()+time.Minute); left != 0 {
			t.Fatalf("%d jobs unfinished", left)
		}
	})
	evs := c.rec.byJob(jobID)
	var kinds []grid.EventKind
	for _, ev := range evs {
		kinds = append(kinds, ev.Kind)
	}
	// The lifecycle must pass through these stages in order. The
	// owner's EvMatched is its receipt of the assign ack, which an idle
	// run node's start now precedes, so it is checked for presence only.
	want := []grid.EventKind{
		grid.EvSubmitted, grid.EvInjected, grid.EvOwned, grid.EvEnqueued,
		grid.EvStarted, grid.EvResultDelivered,
	}
	wi := 0
	at := map[grid.EventKind]time.Duration{}
	for i, k := range kinds {
		if wi < len(want) && k == want[wi] {
			wi++
		}
		at[k] = evs[i].At
	}
	if wi != len(want) {
		t.Fatalf("lifecycle %v missing stage %v", kinds, want[wi])
	}
	if _, ok := at[grid.EvMatched]; !ok {
		t.Fatalf("lifecycle %v missing stage %v", kinds, grid.EvMatched)
	}
	// The executor waits on the queue condition: a job assigned to an
	// idle node starts at its enqueue instant, not at the next poll.
	if at[grid.EvStarted] != at[grid.EvEnqueued] {
		t.Fatalf("idle node started the job at %v, enqueued at %v", at[grid.EvStarted], at[grid.EvEnqueued])
	}
}

func TestManyJobsAllComplete(t *testing.T) {
	c := newCluster(t, 8, 2, grid.Config{}, uniform)
	defer c.e.Shutdown()
	const J = 40
	c.do(0, func(rt transport.Runtime) {
		for i := 0; i < J; i++ {
			if _, err := c.nodes[0].Submit(rt, grid.JobSpec{Work: time.Second}); err != nil {
				t.Fatalf("submit %d: %v", i, err)
			}
		}
		if left := c.nodes[0].AwaitAll(rt, rt.Now()+10*time.Minute); left != 0 {
			t.Fatalf("%d jobs unfinished", left)
		}
	})
	if got := c.rec.count(grid.EvResultDelivered); got != J {
		t.Fatalf("%d results, want %d", got, J)
	}
	// Work should be spread across nodes by the least-loaded rule.
	busy := 0
	for _, n := range c.nodes {
		if n.Completed > 0 {
			busy++
		}
	}
	if busy < 4 {
		t.Fatalf("only %d nodes did work", busy)
	}
}

func TestOneJobAtATimePerRunNode(t *testing.T) {
	c := newCluster(t, 3, 3, grid.Config{}, uniform)
	defer c.e.Shutdown()
	var jobs []ids.ID
	c.do(0, func(rt transport.Runtime) {
		for i := 0; i < 12; i++ {
			id, err := c.nodes[0].Submit(rt, grid.JobSpec{Work: 2 * time.Second})
			if err != nil {
				t.Fatalf("submit: %v", err)
			}
			jobs = append(jobs, id)
		}
		if left := c.nodes[0].AwaitAll(rt, rt.Now()+10*time.Minute); left != 0 {
			t.Fatalf("%d unfinished", left)
		}
	})
	// Per run node, the delivered results' execution intervals
	// [Started, Finished) must not overlap: the executor holds one job
	// at a time, whatever its result delivery is still doing.
	byNode := map[transport.Addr][]grid.Result{}
	for _, id := range jobs {
		seq, _ := c.nodes[0].SeqFor(id)
		st, ok := c.nodes[0].StatusBySeq(seq)
		if !ok || !st.Done {
			t.Fatalf("job %s not delivered", id.Short())
		}
		byNode[st.Res.RunNode] = append(byNode[st.Res.RunNode], st.Res)
	}
	for node, rs := range byNode {
		sort.Slice(rs, func(i, j int) bool { return rs[i].Started < rs[j].Started })
		for i := 1; i < len(rs); i++ {
			if rs[i].Started < rs[i-1].Finished {
				t.Fatalf("node %s ran two jobs concurrently: [%v, %v) and [%v, %v)",
					node, rs[i-1].Started, rs[i-1].Finished, rs[i].Started, rs[i].Finished)
			}
		}
	}
}

func TestConstraintsRespected(t *testing.T) {
	c := newCluster(t, 10, 4, grid.Config{}, varied)
	defer c.e.Shutdown()
	cons := resource.Unconstrained.Require(resource.CPU, 8)
	c.do(0, func(rt transport.Runtime) {
		for i := 0; i < 5; i++ {
			if _, err := c.nodes[0].Submit(rt, grid.JobSpec{Cons: cons, Work: time.Second}); err != nil {
				t.Fatalf("submit: %v", err)
			}
		}
		if left := c.nodes[0].AwaitAll(rt, rt.Now()+5*time.Minute); left != 0 {
			t.Fatalf("%d unfinished", left)
		}
	})
	c.rec.mu.Lock()
	defer c.rec.mu.Unlock()
	for _, ev := range c.rec.evs {
		if ev.Kind != grid.EvStarted {
			continue
		}
		for i, h := range c.hosts {
			if h.Addr() == ev.Node && !cons.SatisfiedBy(c.nodes[i].Caps(), c.nodes[i].OS()) {
				t.Fatalf("job started on non-satisfying node %s", ev.Node)
			}
		}
	}
}

func TestRunNodeFailureRecovery(t *testing.T) {
	cfg := grid.Config{HeartbeatEvery: time.Second, RunDeadAfter: 3 * time.Second}
	c := newCluster(t, 4, 5, cfg, uniform)
	defer c.e.Shutdown()
	// Exclude node 0 (client+owner) from running by making it busy? No:
	// instead find which node got the job and crash it mid-run.
	var jobID ids.ID
	c.do(0, func(rt transport.Runtime) {
		var err error
		jobID, err = c.nodes[0].Submit(rt, grid.JobSpec{Work: 30 * time.Second})
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		// Wait until it starts somewhere.
		for c.rec.count(grid.EvStarted) == 0 {
			rt.Sleep(time.Second)
		}
	})
	var runAddr transport.Addr
	c.rec.mu.Lock()
	for _, ev := range c.rec.evs {
		if ev.Kind == grid.EvStarted {
			runAddr = ev.Node
		}
	}
	c.rec.mu.Unlock()
	var victim int = -1
	for i, h := range c.hosts {
		if h.Addr() == runAddr {
			victim = i
		}
	}
	if victim == 0 {
		t.Skip("job ran on the client node itself; crash would kill the client role")
	}
	c.hosts[victim].Crash()
	c.do(0, func(rt transport.Runtime) {
		if left := c.nodes[0].AwaitAll(rt, rt.Now()+5*time.Minute); left != 0 {
			t.Fatalf("job never recovered (%d unfinished)", left)
		}
	})
	if c.rec.count(grid.EvRunFailureDetected) == 0 {
		t.Fatal("owner never detected the run-node failure")
	}
	evs := c.rec.byJob(jobID)
	delivered := false
	for _, ev := range evs {
		if ev.Kind == grid.EvResultDelivered && ev.Node != runAddr {
			delivered = true
		}
	}
	if !delivered {
		t.Fatal("result not delivered by a replacement run node")
	}
}

func TestOwnerFailureAdoption(t *testing.T) {
	cfg := grid.Config{HeartbeatEvery: time.Second, OwnerDeadAfter: 3 * time.Second}
	// Node 0 (the owner per the switchable overlay) is too weak to run
	// the job, so crashing it exercises pure owner failure.
	c := newCluster(t, 4, 6, cfg, func(i int) (resource.Vector, string) {
		cpu := 5.0
		if i == 0 {
			cpu = 1
		}
		return resource.Vector{cpu, 4096, 100}, "linux"
	})
	defer c.e.Shutdown()
	cons := resource.Unconstrained.Require(resource.CPU, 2)
	var started bool
	c.do(3, func(rt transport.Runtime) {
		if _, err := c.nodes[3].Submit(rt, grid.JobSpec{Cons: cons, Work: 40 * time.Second}); err != nil {
			t.Fatalf("submit: %v", err)
		}
		for c.rec.count(grid.EvStarted) == 0 {
			rt.Sleep(time.Second)
		}
		started = true
	})
	if !started {
		t.Fatal("job never started")
	}
	c.hosts[0].Crash()
	c.do(3, func(rt transport.Runtime) {
		if left := c.nodes[3].AwaitAll(rt, rt.Now()+6*time.Minute); left != 0 {
			t.Fatalf("job lost after owner crash (%d unfinished)", left)
		}
	})
	if c.rec.count(grid.EvOwnerFailureDetected) == 0 {
		t.Fatal("run node never detected the owner failure")
	}
	if c.rec.count(grid.EvOwnerAdopted) == 0 {
		t.Fatal("no new owner adopted the orphaned job")
	}
}

// TestVotingSelfAdoptionKeepsVote: under redundant execution (R=3,
// Q=2) the owner dies while every replica runs the job, and the
// overlay's next owner, n001, is itself one of the replicas. Its
// self-adoption must restart the vote as a peer's adoption would, so
// the replicas' votes reach quorum at n001 and the result is delivered
// without the client resubmitting.
func TestVotingSelfAdoptionKeepsVote(t *testing.T) {
	cfg := grid.Config{HeartbeatEvery: time.Second, RunDeadAfter: 3 * time.Second, OwnerDeadAfter: 3 * time.Second,
		Replicas: 3, Quorum: 2}
	// The owner n000 and the client n004 are too weak to run the job,
	// so its replicas are n001-n003.
	c := newCluster(t, 5, 9, cfg, func(i int) (resource.Vector, string) {
		cpu := 5.0
		if i == 0 || i == 4 {
			cpu = 1
		}
		return resource.Vector{cpu, 4096, 100}, "linux"
	})
	defer c.e.Shutdown()
	c.nodes[4].StartClientMonitor(10 * time.Second)
	cons := resource.Unconstrained.Require(resource.CPU, 2)
	c.do(4, func(rt transport.Runtime) {
		if _, err := c.nodes[4].Submit(rt, grid.JobSpec{Cons: cons, Work: 40 * time.Second}); err != nil {
			t.Fatalf("submit: %v", err)
		}
		for c.rec.count(grid.EvStarted) < 3 {
			rt.Sleep(time.Second)
		}
	})
	c.hosts[0].Crash()
	c.do(4, func(rt transport.Runtime) {
		if left := c.nodes[4].AwaitAll(rt, rt.Now()+10*time.Minute); left != 0 {
			t.Fatalf("job lost after owner crash (%d unfinished)", left)
		}
	})
	accepted := 0
	for _, ev := range c.rec.byJob(grid.JobGUID(c.hosts[4].Addr(), 1, 0)) {
		if ev.Kind == grid.EvAccepted && ev.Node == c.hosts[1].Addr() {
			accepted++
		}
	}
	if resub := c.rec.count(grid.EvResubmitted); resub != 0 || accepted != 1 {
		t.Fatalf("%d resubmits and %d EvAccepted at the self-adopting replica n001; want 0 and 1", resub, accepted)
	}
}

func TestBothFailClientResubmits(t *testing.T) {
	cfg := grid.Config{HeartbeatEvery: time.Second, RunDeadAfter: 3 * time.Second, OwnerDeadAfter: 3 * time.Second}
	c := newCluster(t, 5, 7, cfg, uniform)
	defer c.e.Shutdown()
	c.nodes[4].StartClientMonitor(10 * time.Second)
	var runAddr transport.Addr
	c.do(4, func(rt transport.Runtime) {
		if _, err := c.nodes[4].Submit(rt, grid.JobSpec{Work: 20 * time.Second}); err != nil {
			t.Fatalf("submit: %v", err)
		}
		for c.rec.count(grid.EvStarted) == 0 {
			rt.Sleep(time.Second)
		}
	})
	c.rec.mu.Lock()
	for _, ev := range c.rec.evs {
		if ev.Kind == grid.EvStarted {
			runAddr = ev.Node
		}
	}
	c.rec.mu.Unlock()
	// Crash both the owner (n000 per switchable overlay) and run node.
	c.hosts[0].Crash()
	for i, h := range c.hosts {
		if h.Addr() == runAddr && i != 4 {
			c.hosts[i].Crash()
		}
	}
	c.do(4, func(rt transport.Runtime) {
		if left := c.nodes[4].AwaitAll(rt, rt.Now()+15*time.Minute); left != 0 {
			t.Fatalf("job never completed after double failure (%d left)", left)
		}
	})
	if c.rec.count(grid.EvResubmitted) == 0 {
		t.Fatal("client never resubmitted")
	}
}

func TestDuplicateResultsSuppressed(t *testing.T) {
	// Force a rematch while the original run node is still alive but
	// partitioned; when it heals and completes, its result must be
	// dropped (the client already got one from the replacement).
	cfg := grid.Config{HeartbeatEvery: time.Second, RunDeadAfter: 3 * time.Second}
	c := newCluster(t, 4, 8, cfg, uniform)
	defer c.e.Shutdown()
	var runAddr transport.Addr
	c.do(0, func(rt transport.Runtime) {
		if _, err := c.nodes[0].Submit(rt, grid.JobSpec{Work: 25 * time.Second}); err != nil {
			t.Fatalf("submit: %v", err)
		}
		for c.rec.count(grid.EvStarted) == 0 {
			rt.Sleep(time.Second)
		}
	})
	c.rec.mu.Lock()
	for _, ev := range c.rec.evs {
		if ev.Kind == grid.EvStarted {
			runAddr = ev.Node
		}
	}
	c.rec.mu.Unlock()
	// Partition the run node away from everyone (it keeps running).
	c.net.SetReachable(func(a, b transport.Addr) bool {
		return a != runAddr && b != runAddr
	})
	c.do(0, func(rt transport.Runtime) {
		// Wait for rematch + completion elsewhere.
		if left := c.nodes[0].AwaitAll(rt, rt.Now()+5*time.Minute); left != 0 {
			t.Fatalf("%d unfinished", left)
		}
	})
	// Heal; let the partitioned node finish and try to deliver.
	c.net.SetReachable(nil)
	c.e.RunFor(2 * time.Minute)
	if got := c.rec.count(grid.EvResultDelivered); got != 1 {
		t.Fatalf("%d results delivered, want exactly 1", got)
	}
}

func TestQueueLen(t *testing.T) {
	c := newCluster(t, 1, 9, grid.Config{}, uniform)
	defer c.e.Shutdown()
	if c.nodes[0].QueueLen() != 0 {
		t.Fatal("fresh node has nonzero queue")
	}
	c.do(0, func(rt transport.Runtime) {
		for i := 0; i < 3; i++ {
			if _, err := c.nodes[0].Submit(rt, grid.JobSpec{Work: 10 * time.Second}); err != nil {
				t.Fatalf("submit: %v", err)
			}
		}
		rt.Sleep(5 * time.Second)
		if q := c.nodes[0].QueueLen(); q != 3 {
			t.Fatalf("QueueLen = %d, want 3 (1 running + 2 queued)", q)
		}
	})
}

func TestJobGUIDDistinctPerAttempt(t *testing.T) {
	a := grid.JobGUID("client", 1, 0)
	b := grid.JobGUID("client", 1, 1)
	cID := grid.JobGUID("client", 2, 0)
	if a == b || a == cID || b == cID {
		t.Fatal("GUIDs collide")
	}
	if a != grid.JobGUID("client", 1, 0) {
		t.Fatal("GUID not deterministic")
	}
}

func TestSpeedScaling(t *testing.T) {
	cfg := grid.Config{SpeedScaling: true}
	c := newCluster(t, 1, 10, cfg, func(i int) (resource.Vector, string) {
		return resource.Vector{4, 1024, 10}, "linux" // cpu speed 4
	})
	defer c.e.Shutdown()
	var started, finished sim.Time
	c.do(0, func(rt transport.Runtime) {
		if _, err := c.nodes[0].Submit(rt, grid.JobSpec{Work: 40 * time.Second}); err != nil {
			t.Fatalf("submit: %v", err)
		}
		if left := c.nodes[0].AwaitAll(rt, rt.Now()+5*time.Minute); left != 0 {
			t.Fatalf("unfinished")
		}
	})
	c.rec.mu.Lock()
	for _, ev := range c.rec.evs {
		if ev.Kind == grid.EvStarted {
			started = sim.Time(ev.At)
		}
		if ev.Kind == grid.EvResultDelivered {
			finished = sim.Time(ev.At)
		}
	}
	c.rec.mu.Unlock()
	elapsed := time.Duration(finished - started)
	if elapsed < 9*time.Second || elapsed > 12*time.Second {
		t.Fatalf("scaled runtime %v, want ~10s (40s work / speed 4)", elapsed)
	}
}

func TestEventKindString(t *testing.T) {
	if grid.EvSubmitted.String() != "submitted" || grid.EvGaveUp.String() != "gave-up" {
		t.Fatal("event names wrong")
	}
	if grid.EventKind(99).String() == "" {
		t.Fatal("out-of-range event name empty")
	}
}
