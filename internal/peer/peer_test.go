package peer

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/chord"
	"repro/internal/grid"
	"repro/internal/match"
	"repro/internal/metrics"
	"repro/internal/resource"
	"repro/internal/rntree"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/trust"
)

// spyHost reports every activity its peer starts, which is how the
// tests see what Launch started and when.
type spyHost struct {
	transport.Host
	onGo func(name string)
}

func (h spyHost) Go(name string, fn func(rt transport.Runtime)) {
	h.onGo(name)
	h.Host.Go(name, fn)
}

// cluster is n peers on one simulated network. log is every activity
// start and every message in event order; early lists peers whose tree
// started before their ring had closed.
type cluster struct {
	e     *sim.Engine
	net   *simnet.Net
	peers []*Peer
	went  []map[string]int // per peer: activity name -> starts
	ready []time.Duration  // per peer: when Launch returned nil; -1 before
	log   []string
	early []transport.Addr
	rec   *metrics.Collector // every peer's grid events
}

func newCluster(t *testing.T, seed int64, n int, cfg Config) *cluster {
	t.Helper()
	c := &cluster{e: sim.NewEngine(seed), rec: metrics.NewCollector()}
	t.Cleanup(c.e.Shutdown)
	c.net = simnet.New(c.e)
	c.net.Latency = simnet.UniformLatency{Min: 10 * time.Millisecond, Max: 50 * time.Millisecond}
	c.net.Faults = transport.FaultFunc(func(from, to transport.Addr, method string, response bool) transport.Fault {
		c.log = append(c.log, fmt.Sprintf("%v %s>%s %s %v", c.e.Now(), from, to, method, response))
		return transport.Fault{}
	})
	for i := 0; i < n; i++ {
		c.add(cfg)
	}
	return c
}

func (c *cluster) add(cfg Config) int {
	return c.addCaps(cfg, resource.Vector{float64(1 + len(c.peers)), 1024, 50})
}

// addCaps adds a peer with the given capabilities, recording its grid
// events into c.rec.
func (c *cluster) addCaps(cfg Config, caps resource.Vector) int {
	i := len(c.peers)
	h := c.net.NewEndpoint(transport.Addr(fmt.Sprintf("p%02d", i)))
	c.went = append(c.went, map[string]int{})
	c.ready = append(c.ready, -1)
	var p *Peer
	p = New(spyHost{Host: h, onGo: func(name string) {
		c.went[i][name]++
		c.log = append(c.log, fmt.Sprintf("%v %s go %s", c.e.Now(), h.Addr(), name))
		if name == "rnt.aggregate" && i > 0 {
			succ, pred := p.Ring.Successor(), p.Ring.Predecessor()
			if succ.Addr == h.Addr() || pred.IsZero() || pred.Addr == h.Addr() {
				c.early = append(c.early, h.Addr())
			}
		}
	}}, caps, "linux", c.rec, cfg)
	c.peers = append(c.peers, p)
	return i
}

// launch starts peer i's Launch now: peer 0 creates, the rest join
// through it.
func (c *cluster) launch(t *testing.T, i int) {
	t.Helper()
	var boot transport.Addr
	if i > 0 {
		boot = c.peers[0].Host.Addr()
	}
	c.peers[i].Host.Go("launch", func(rt transport.Runtime) {
		if err := c.peers[i].Launch(rt, boot); err != nil {
			t.Errorf("peer %d: %v", i, err)
			return
		}
		c.ready[i] = rt.Now()
	})
}

// fast converges a simulated grid in seconds instead of the defaults'
// tens of seconds.
var fast = Config{Tree: rntree.Config{AggregateEvery: time.Second}}

func coldStart(t *testing.T, seed int64) *cluster {
	c := newCluster(t, seed, 8, fast)
	for i := range c.peers {
		c.launch(t, i)
	}
	c.e.RunFor(time.Minute)
	return c
}

// TestColdStartFormsOneRingOneTree: eight peers launched in the same
// instant through one bootstrap end up as one closed ring carrying one
// tree, and no peer started its tree before its ring gate had passed.
func TestColdStartFormsOneRingOneTree(t *testing.T) {
	c := coldStart(t, 1)
	by := map[transport.Addr]*Peer{}
	for i, p := range c.peers {
		by[p.Host.Addr()] = p
		if c.ready[i] < 0 {
			t.Errorf("peer %d never became ready", i)
		}
		if c.went[i]["rnt.aggregate"] != 1 || c.went[i]["grid.exec"] != 1 {
			t.Errorf("peer %d started %v, want the tree and the grid once each", i, c.went[i])
		}
	}
	if len(c.early) > 0 {
		t.Errorf("tree started before the ring had closed on %v", c.early)
	}

	var ring []*chord.Node
	for _, p := range c.peers {
		ring = append(ring, p.Ring)
	}
	if err := chord.CheckRing(ring); err != nil {
		t.Fatal(err)
	}

	roots := 0
	for _, p := range c.peers {
		parent := p.Tree.Parent()
		if parent.IsZero() {
			roots++
			continue
		}
		listed := false
		for _, child := range by[parent.Addr].Tree.Children() {
			listed = listed || child == p.Host.Addr()
		}
		if !listed {
			t.Errorf("%s is not listed by its parent %s", p.Host.Addr(), parent.Addr)
		}
	}
	if roots != 1 {
		t.Errorf("%d tree roots, want 1", roots)
	}
}

func TestColdStartReplays(t *testing.T) {
	a, b := coldStart(t, 3).log, coldStart(t, 3).log
	if len(a) != len(b) {
		t.Fatalf("same seed, %d events then %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverges at event %d:\n  first:  %s\n  replay: %s", i, a[i], b[i])
		}
	}
	if other := coldStart(t, 4).log; len(other) == len(a) && other[len(other)-1] == a[len(a)-1] {
		t.Fatal("another seed gave the same event log: the seed is not reaching the run")
	}
}

// TestSoleCreatorAndLateJoiner: a creator is a whole grid of one and
// ready in the instant it launches; a peer that joins a grid already
// running becomes ready too.
func TestSoleCreatorAndLateJoiner(t *testing.T) {
	c := newCluster(t, 5, 3, fast)
	c.launch(t, 0)
	c.e.RunFor(time.Millisecond)
	if c.ready[0] != 0 {
		t.Fatalf("sole creator ready at %v, want at once", c.ready[0])
	}
	c.launch(t, 1)
	c.launch(t, 2)
	c.e.RunFor(30 * time.Second)

	late := c.add(fast)
	began := time.Duration(c.e.Now())
	c.launch(t, late)
	c.e.RunFor(30 * time.Second)
	if c.ready[late] < 0 {
		t.Fatal("late joiner never became ready")
	}
	p := c.peers[late]
	if p.Tree.Parent().IsZero() && len(p.Tree.Children()) == 0 {
		t.Fatal("late joiner ready with no parent and no child")
	}
	t.Logf("late joiner ready %v after launching", c.ready[late]-began)
}

// TestJoinGivesUp: with the bootstrap down for the whole bound Launch
// returns the join error, having started nothing.
func TestJoinGivesUp(t *testing.T) {
	c := newCluster(t, 6, 2, fast)
	c.net.Endpoint("p00").Crash()
	var err error
	var at time.Duration
	c.peers[1].Host.Go("launch", func(rt transport.Runtime) {
		err = c.peers[1].Launch(rt, "p00")
		at = rt.Now()
	})
	c.e.RunFor(time.Minute)
	if err == nil || errors.Is(err, ErrNotReady) {
		t.Fatalf("Launch = %v, want the join error", err)
	}
	if at < joinBound || at > joinBound+10*time.Second {
		t.Errorf("gave up at %v, want just past the %v bound", at, joinBound)
	}
	if len(c.went[1]) != 1 {
		t.Errorf("activities started: %v, want only the launch itself", c.went[1])
	}
}

// TestJoinAfterDepartureClosesRing: p0 creates, p1 joins, and 10 s
// later p1 departs; p2 then launches through p0, whose lookup may still
// hand it p1 as successor. Both p0 and p2 purge p1, and p2 must not be
// left a ring of one that nobody knows: it becomes ready, and p0 and
// p2 form one correct ring. Crashes are silent (a dropped host) or
// refused (a closed port), at gaps of 0 to 500 ms before p2 launches.
func TestJoinAfterDepartureClosesRing(t *testing.T) {
	for _, refused := range []bool{false, true} {
		for _, gap := range []time.Duration{0, 100 * time.Millisecond, 500 * time.Millisecond} {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("refused=%v/gap=%v/seed=%d", refused, gap, seed), func(t *testing.T) {
					c := newCluster(t, seed, 3, fast)
					c.net.RefuseWhenDown = refused
					c.launch(t, 0)
					c.launch(t, 1)
					c.e.RunFor(10 * time.Second)
					c.net.Endpoint(c.peers[1].Host.Addr()).Crash()
					c.e.RunFor(gap)
					c.launch(t, 2)
					c.e.RunFor(gateBound + 20*time.Second)
					if c.ready[2] < 0 {
						t.Fatal("p2 never became ready")
					}
					if err := chord.CheckRing([]*chord.Node{c.peers[0].Ring, c.peers[2].Ring}); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// TestClientAfterDepartedClient is two gridctl chaos clients in turn:
// p1 joins a grid of one or three nodes as a client peer, submits three
// jobs, has them delivered and closes (a refused crash). After a gap,
// the next client joins through p0 and submits three jobs of its own.
// Nothing is lost, so nothing may be resubmitted, and each client's jobs
// are delivered within 5 s of submitting. The departed client lingers
// in its neighbours' tables for a while, and a job routed onto it used
// to wait out the 5 s resubmit patience.
func TestClientAfterDepartedClient(t *testing.T) {
	cfg := Config{Tree: fast.Tree, Grid: grid.Config{HeartbeatEvery: time.Second}}
	client := resource.Vector{0.1, 1, 1} // gridctl's: too small for the jobs
	spec := grid.JobSpec{Work: 50 * time.Millisecond, Cons: resource.Unconstrained.Require(resource.CPU, 1)}
	for _, nodes := range []int{1, 3} {
		for _, gap := range []time.Duration{0, 10 * time.Millisecond, 100 * time.Millisecond, 2 * time.Second} {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("nodes=%d/gap=%v/seed=%d", nodes, gap, seed), func(t *testing.T) {
					c := newCluster(t, seed, nodes, cfg)
					c.net.RefuseWhenDown = true
					for i := range c.peers {
						c.launch(t, i)
					}
					c.e.RunFor(5 * time.Second)
					for _, i := range []int{c.addCaps(cfg, client), c.addCaps(cfg, client)} {
						c.launch(t, i)
						c.e.RunFor(5 * time.Second)
						if c.ready[i] < 0 {
							t.Fatalf("p%d never became ready", i)
						}
						p := c.peers[i]
						p.Grid.StartClientMonitor(5 * time.Second)
						left, took := -1, time.Duration(0)
						p.Host.Go("soak", func(rt transport.Runtime) {
							began := rt.Now()
							for j := 0; j < 3; j++ {
								_, _ = p.Grid.Submit(rt, spec)
							}
							left = p.Grid.AwaitAll(rt, rt.Now()+time.Minute)
							took = rt.Now() - began
						})
						c.e.RunFor(time.Minute + time.Second)
						if left != 0 || took > 5*time.Second {
							t.Errorf("p%d: %d of 3 jobs left after %v, want all delivered within 5s", i, left, took)
						}
						c.net.Endpoint(p.Host.Addr()).Crash()
						c.e.RunFor(gap)
					}
					if n := c.rec.Count(grid.EvResubmitted); n != 0 {
						t.Errorf("%d resubmissions, want none", n)
					}
					if err := c.rec.Check(6); err != nil {
						t.Error(err)
					}
				})
			}
		}
	}
}

// TestNewWiresOptions covers the option combinations gridnode and
// experiments.Build use: what New constructs, that ring changes reach
// exactly the subsystems that are on (their kick activities run), and
// that only the RN-Tree's jobs take the walk.
func TestNewWiresOptions(t *testing.T) {
	central := &match.Central{Reg: match.NewRegistry()}
	for _, tc := range []struct {
		name                             string
		cfg                              Config
		trusted, pubsub, store, baseline bool
	}{
		{name: "plain (gridctl, livegrid)", cfg: fast},
		{name: "voting (gridnode -replicas 2)", trusted: true,
			cfg: Config{Tree: fast.Tree, Grid: grid.Config{Replicas: 2, Quorum: 2, Trust: trust.New()}}},
		{name: "notify (gridnode -notify)", pubsub: true,
			cfg: Config{Tree: fast.Tree, Notify: true}},
		{name: "replica (replsweep)", store: true,
			cfg: Config{Tree: fast.Tree, Grid: grid.Config{ReplicaK: 2}}},
		{name: "notify + replica (sim_chaos)", pubsub: true, store: true,
			cfg: Config{Tree: fast.Tree, Grid: grid.Config{ReplicaK: 2}, Notify: true}},
		{name: "central (experiments.Build baselines)", baseline: true,
			cfg: Config{Tree: fast.Tree, Match: func(*chord.Node) grid.Matchmaker { return central }}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newCluster(t, 7, 3, tc.cfg)
			for i, p := range c.peers {
				if _, ok := p.Match.(*match.Trusted); ok != tc.trusted {
					t.Fatalf("matchmaker is %T, trusted wrapper wanted: %v", p.Match, tc.trusted)
				}
				if (p.Broker != nil) != tc.pubsub {
					t.Fatalf("broker %v, wanted: %v", p.Broker, tc.pubsub)
				}
				if tc.baseline {
					if p.Match != central {
						t.Fatalf("matchmaker is %T, want the one Config.Match built", p.Match)
					}
					central.Reg.Register(p.Host.Addr(), match.RegistryEntry{
						Caps: resource.Vector{float64(1 + i), 1024, 50}, OS: "linux",
						Load: p.Grid.QueueLen, Up: c.net.Endpoint(p.Host.Addr()).Up,
					})
				}
				c.launch(t, i)
			}
			c.e.RunFor(20 * time.Second)
			// No job yet, so nothing but a ring change has kicked anything.
			kicks := map[string]int{}
			for _, went := range c.went {
				kicks["pubsub.kick"] += went["pubsub.kick"]
				kicks["replica.kick"] += went["replica.kick"]
			}
			if (kicks["pubsub.kick"] > 0) != tc.pubsub || (kicks["replica.kick"] > 0) != tc.store {
				t.Errorf("ring changes kicked %v, want pubsub: %v, replica: %v", kicks, tc.pubsub, tc.store)
			}

			client := c.peers[0]
			client.Host.Go("client", func(rt transport.Runtime) {
				if _, err := client.Grid.Submit(rt, grid.JobSpec{Work: time.Second}); err != nil {
					t.Errorf("submit: %v", err)
				}
				if left := client.Grid.AwaitAll(rt, rt.Now()+time.Minute); left != 0 {
					t.Errorf("%d jobs unfinished", left)
				}
			})
			c.e.RunFor(2 * time.Minute)
			// grid.NewNode wired the broker's handler itself: the
			// client's pushes arrive.
			if got := client.Grid.NotifyRecv > 0; got != tc.pubsub {
				t.Errorf("client absorbed %d notifications, wanted any: %v", client.Grid.NotifyRecv, tc.pubsub)
			}
			walks := 0
			for _, line := range c.log {
				if strings.Contains(line, " "+rntree.MWalk+" ") {
					walks++
				}
			}
			if (walks > 0) == tc.baseline {
				t.Errorf("%d walk messages, wanted any: %v", walks, !tc.baseline)
			}
		})
	}
}

// TestTreeKReachesTheSearch: Config.Tree.K is the matchmaker's
// candidate target. With K covering all 24 peers, the search finds the
// one idle peer wherever it sits in the tree; at the default K of 4 it
// stops at the first four busy ones it meets.
func TestTreeKReachesTheSearch(t *testing.T) {
	const idle = 7
	c := newCluster(t, 1, 24, Config{Tree: rntree.Config{K: 24}})
	var rings []*chord.Node
	var trees []*rntree.Node
	for i, p := range c.peers {
		load := 10
		if i == idle {
			load = 0
		}
		p.Tree.SetLoadFn(func() int { return load })
		rings = append(rings, p.Ring)
		trees = append(trees, p.Tree)
	}
	chord.WarmStart(rings)
	rntree.WarmStart(trees, 0)
	searcher := c.peers[3]
	var got transport.Addr
	searcher.Host.Go("match", func(rt transport.Runtime) {
		var err error
		if got, _, err = searcher.Match.FindRunNode(rt, resource.Unconstrained, nil); err != nil {
			t.Errorf("find: %v", err)
		}
	})
	c.e.RunFor(time.Minute)
	if want := c.peers[idle].Host.Addr(); got != want {
		t.Fatalf("chose %s, want the idle %s", got, want)
	}
}
