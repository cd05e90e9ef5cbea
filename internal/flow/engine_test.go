package flow_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/flow"
	"repro/internal/grid"
	"repro/internal/ids"
	"repro/internal/match"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// A minimal simulated grid for engine tests, mirroring the grid
// package's test cluster: omniscient central matchmaking (grid
// mechanics are under test elsewhere; here the DAG engine is).

type recorder struct {
	mu  sync.Mutex
	evs []grid.Event
}

func (r *recorder) Record(ev grid.Event) {
	r.mu.Lock()
	r.evs = append(r.evs, ev)
	r.mu.Unlock()
}

type cluster struct {
	e     *sim.Engine
	net   *simnet.Net
	hosts []*simnet.Endpoint
	nodes []*grid.Node
	rec   *recorder
}

type switchableOverlay struct {
	owners []*simnet.Endpoint
}

func (o *switchableOverlay) RouteJob(rt transport.Runtime, jobID ids.ID, cons resource.Constraints) (transport.Addr, int, error) {
	for _, ep := range o.owners {
		if ep.Up() {
			return ep.Addr(), 1, nil
		}
	}
	return "", 0, fmt.Errorf("no live owner")
}

func newCluster(t *testing.T, n int, seed int64, cfg grid.Config) *cluster {
	t.Helper()
	e := sim.NewEngine(seed)
	net := simnet.New(e)
	net.Latency = simnet.UniformLatency{Min: 5 * time.Millisecond, Max: 20 * time.Millisecond}
	c := &cluster{e: e, net: net, rec: &recorder{}}
	reg := match.NewRegistry()
	overlay := &switchableOverlay{}
	for i := 0; i < n; i++ {
		h := net.NewEndpoint(transport.Addr(fmt.Sprintf("n%03d", i)))
		caps := resource.Vector{5, 4096, 100}
		gn := grid.NewNode(h, caps, "linux", overlay, &match.Central{Reg: reg}, c.rec, cfg)
		c.hosts = append(c.hosts, h)
		c.nodes = append(c.nodes, gn)
		overlay.owners = append(overlay.owners, h)
		reg.Register(h.Addr(), match.RegistryEntry{Caps: caps, OS: "linux", Load: gn.QueueLen, Up: h.Up})
		gn.Start()
	}
	return c
}

// do runs fn in a client activity on node i, pumping the engine until
// it returns.
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

// collectingPublisher records flow updates in publish order.
type collectingPublisher struct {
	mu      sync.Mutex
	updates []flow.Update
}

func (p *collectingPublisher) Publish(topic ids.ID, payload []byte) {
	u, err := flow.DecodeUpdate(payload)
	if err != nil {
		panic(err)
	}
	p.mu.Lock()
	p.updates = append(p.updates, u)
	p.mu.Unlock()
}

// TestFlowDiamondDataPassing runs the diamond DAG end to end and
// checks fan-in ordering plus cross-stage data passing: each stage's
// delivered output must equal the pure derivation from its submission
// identity and bundled input, and the fan-in stage must start only
// after both branches delivered.
func TestFlowDiamondDataPassing(t *testing.T) {
	c := newCluster(t, 6, 41, grid.Config{})
	defer c.e.Shutdown()
	client := c.nodes[0]
	g := flow.Graph{Name: "diamond", Stages: []flow.Stage{
		{Name: "prep", Spec: grid.JobSpec{Work: 2 * time.Second, OutputKB: 2}},
		{Name: "left", Spec: grid.JobSpec{Work: 10 * time.Second, OutputKB: 1}, After: []string{"prep"}},
		{Name: "right", Spec: grid.JobSpec{Work: 6 * time.Second, OutputKB: 1}, After: []string{"prep"}},
		{Name: "merge", Spec: grid.JobSpec{Work: 4 * time.Second, OutputKB: 1}, After: []string{"left", "right"}},
	}}
	pub := &collectingPublisher{}
	var results map[string]flow.StageResult
	var err error
	c.do(0, func(rt transport.Runtime) {
		results, err = flow.Run(rt, client, g, flow.Options{
			Deadline: rt.Now() + time.Hour,
			Notify:   pub,
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("completed %d/4 stages", len(results))
	}

	// Fan-in ordering: merge submits only after both branches deliver.
	for _, dep := range []string{"left", "right"} {
		if results["merge"].Started < results[dep].Finished {
			t.Fatalf("merge started %v before %s delivered %v",
				results["merge"].Started, dep, results[dep].Finished)
		}
	}
	// Branches overlap: both start before either finishes.
	if results["right"].Started >= results["left"].Finished {
		t.Fatal("branches serialized")
	}

	// Data passing: outputs are the pure derivation over (client, seq,
	// input). Submission order fixes the seqs: prep=1, then the ready
	// batch left=2, right=3, then merge=4.
	addr := client.Addr()
	prepOut := grid.StageOutput(grid.Profile{Client: addr, Seq: 1, OutputKB: 2})
	if string(results["prep"].Output) != string(prepOut) {
		t.Fatal("prep output is not the pure derivation")
	}
	leftOut := grid.StageOutput(grid.Profile{Client: addr, Seq: 2, OutputKB: 1, Input: prepOut})
	rightOut := grid.StageOutput(grid.Profile{Client: addr, Seq: 3, OutputKB: 1, Input: prepOut})
	if string(results["left"].Output) != string(leftOut) {
		t.Fatal("left output does not derive from prep's bytes")
	}
	if string(results["right"].Output) != string(rightOut) {
		t.Fatal("right output does not derive from prep's bytes")
	}
	// The sink stage carries no output.
	if results["merge"].Output != nil {
		t.Fatal("sink stage carried output")
	}

	// Flow status: one submitted and one delivered per stage, and for
	// every stage the pair is ordered.
	kinds := map[string][]string{}
	pub.mu.Lock()
	for _, u := range pub.updates {
		if u.Flow != "diamond" {
			t.Fatalf("update for flow %q", u.Flow)
		}
		kinds[u.Stage] = append(kinds[u.Stage], u.Kind)
	}
	pub.mu.Unlock()
	for _, s := range []string{"prep", "left", "right", "merge"} {
		if got := fmt.Sprint(kinds[s]); got != "[submitted delivered]" {
			t.Fatalf("stage %s updates = %v", s, got)
		}
	}
}

// TestFlowStallsPastDeadline: an undersized deadline aborts with
// ErrStalled instead of blocking forever.
func TestFlowStallsPastDeadline(t *testing.T) {
	c := newCluster(t, 2, 42, grid.Config{})
	defer c.e.Shutdown()
	g := flow.Graph{Name: "slow", Stages: []flow.Stage{
		{Name: "long", Spec: grid.JobSpec{Work: time.Hour}},
	}}
	c.do(0, func(rt transport.Runtime) {
		_, err := flow.Run(rt, c.nodes[0], g, flow.Options{Deadline: rt.Now() + 10*time.Second})
		if !errors.Is(err, flow.ErrStalled) {
			t.Errorf("deadline: %v", err)
		}
	})
}
