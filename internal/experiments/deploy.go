// Package experiments assembles full simulated deployments and drives
// the paper's evaluation: every figure panel and every quantitative
// claim in the text maps to one driver here (see DESIGN.md's
// per-experiment index).
package experiments

import (
	"fmt"
	"time"

	"repro/internal/can"
	"repro/internal/chord"
	"repro/internal/faultinject"
	"repro/internal/grid"
	"repro/internal/ids"
	"repro/internal/match"
	"repro/internal/metrics"
	"repro/internal/peer"
	"repro/internal/pubsub"
	"repro/internal/rntree"
	"repro/internal/sim"
	"repro/internal/simhost"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/trust"
	"repro/internal/workload"
)

// Algorithm selects the matchmaking system under test.
type Algorithm int

// The matchmakers compared in the paper (plus two extra baselines).
const (
	AlgRNTree Algorithm = iota
	AlgCAN
	AlgCANPush
	AlgCentral
	AlgTTL
	AlgRandom
)

var algNames = [...]string{"rntree", "can", "can-push", "central", "ttl", "random"}

func (a Algorithm) String() string {
	if int(a) < len(algNames) {
		return algNames[a]
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// ParseAlgorithm resolves an algorithm name.
func ParseAlgorithm(s string) (Algorithm, error) {
	for i, n := range algNames {
		if n == s {
			return Algorithm(i), nil
		}
	}
	return 0, fmt.Errorf("experiments: unknown algorithm %q", s)
}

// Scenario describes one deployment to simulate.
type Scenario struct {
	Alg      Algorithm
	Workload workload.Config
	Grid     grid.Config
	// NetSeed seeds network latency and protocol randomness
	// independently of the workload seed.
	NetSeed int64
	// Maintenance starts the periodic overlay repair loops (needed only
	// under churn; static experiments skip them for speed).
	Maintenance bool
	// DisableVirtualDim is the CAN clustering ablation.
	DisableVirtualDim bool
	// ExtendedSearchK overrides the RN-Tree candidate target.
	ExtendedSearchK int
	// DrainSlack is how long past the last arrival the simulation may
	// run to drain queues (default 40x mean runtime).
	DrainSlack time.Duration
	// Churn, if set, crashes that fraction of nodes (uniformly chosen,
	// never clients) spread over the arrival window.
	Churn float64
	// Faults, if set, arms a seeded fault-injection schedule on top of
	// (or instead of) Churn: message drops/delays/duplicates by RPC
	// method, node crashes with restarts, and temporary partitions.
	// Zero-valued Nodes/Protect/Window fields are filled in by Run
	// (population size, the client nodes, and the arrival window).
	Faults *faultinject.Plan
	// FaultSeed seeds the fault schedule; defaults to NetSeed.
	FaultSeed int64
	// Trust, when set, equips every node with a fresh local reputation
	// table under this configuration and wraps its matchmaker with
	// match.Trusted (blacklist exclusion + suspect retry). Tables are
	// strictly per-node; there is no score gossip.
	Trust *trust.Config
	// Sabotage, when set, turns a seeded fraction of non-client nodes
	// Byzantine: as run nodes they corrupt result digests or withhold
	// results per faultinject.ByzPlan. Zero-valued Protect is filled
	// with the client nodes by Build.
	Sabotage *faultinject.ByzPlan
	// SabotageSeed seeds saboteur selection; defaults to NetSeed.
	SabotageSeed int64
	// Notify equips every node with a pub/sub broker and wires it into
	// the grid (DESIGN.md §13): owners push job-state transitions,
	// clients subscribe per lineage, and the client monitor polls only
	// on notification silence. Chord algorithms resolve rendezvous
	// nodes through the ring (with subscriber-list replication at the
	// grid's ReplicaK); others fall back to a fixed rendezvous.
	Notify bool
	// Monitor forces the client recovery monitor on even in fault-free
	// runs (it is always on under Churn/Faults/Sabotage), so polling
	// traffic is measurable in clean push-vs-poll comparisons.
	Monitor bool
	// MonitorResubmitAfter overrides the monitor's resubmit grace
	// (default 30s).
	MonitorResubmitAfter time.Duration
	// NodeSpecs overrides the generated node population (the facade and
	// examples use this to supply explicit per-node resources).
	NodeSpecs []workload.NodeSpec
	// MutateWorkload, if set, edits the generated workload before the
	// deployment is wired (e.g. to plant rare-resource constraints).
	MutateWorkload func(w *workload.Workload)
	// Instrument attaches kernel observability (the stats collector) to
	// the deployment's engine. It never changes the virtual timeline;
	// Options.Build fills it from gridsim's flags.
	Instrument *Instrument
}

// Deployment is a fully-wired simulated grid.
type Deployment struct {
	Scenario  Scenario
	Engine    *sim.Engine
	Net       *simnet.Net
	W         *workload.Workload
	Hosts     []*simhost.Host
	Eps       []*simnet.Endpoint
	Grids     []*grid.Node
	Chords    []*chord.Node
	RNs       []*rntree.Node
	CANs      []*can.Node
	Registry  *match.Registry
	Collector *metrics.Collector
	Byz       *faultinject.Byz // saboteur selection; nil without Sabotage
	Brokers   []*pubsub.Broker // notification overlay; nil without Notify
	clients   []int            // grid node index serving each workload client
}

// Build constructs and wires the deployment; nothing runs yet.
func Build(s Scenario) *Deployment {
	w := workload.Generate(s.Workload)
	if s.NodeSpecs != nil {
		w.Nodes = s.NodeSpecs
	}
	if s.MutateWorkload != nil {
		s.MutateWorkload(w)
	}
	e := sim.NewEngine(s.NetSeed)
	if ins := s.Instrument; ins != nil && ins.Stats {
		e.EnableStats()
	}
	net := simnet.New(e)
	net.Latency = simnet.UniformLatency{Min: 10 * time.Millisecond, Max: 50 * time.Millisecond}

	d := &Deployment{
		Scenario:  s,
		Engine:    e,
		Net:       net,
		W:         w,
		Registry:  match.NewRegistry(),
		Collector: metrics.NewCollector(),
	}

	n := len(w.Nodes)
	needCAN := s.Alg == AlgCAN || s.Alg == AlgCANPush

	// Map workload clients onto grid nodes, spread across the ID space.
	// Computed before node wiring so saboteur selection can protect them.
	clients := s.Workload.Clients
	if clients <= 0 {
		clients = 1
	}
	for c := 0; c < clients; c++ {
		d.clients = append(d.clients, (c*n)/clients)
	}

	// Saboteur selection: deterministic in the seed, never a client.
	if s.Sabotage != nil {
		plan := *s.Sabotage
		if plan.Protect == nil {
			plan.Protect = append([]int(nil), d.clients...)
		}
		seed := s.SabotageSeed
		if seed == 0 {
			seed = s.NetSeed
		}
		d.Byz = faultinject.GenerateByz(seed, n, plan)
	}

	for i := 0; i < n; i++ {
		ep := net.NewEndpoint(simnet.Addr(fmt.Sprintf("n%04d", i)))
		h := simhost.New(ep)
		d.Eps = append(d.Eps, ep)
		d.Hosts = append(d.Hosts, h)
		spec := w.Nodes[i]

		gcfg := s.Grid
		if s.Trust != nil {
			gcfg.Trust = trust.New(*s.Trust)
		}
		if d.Byz != nil {
			gcfg.Byzantine = d.Byz.Behavior(i)
		}
		// Chord-family nodes are built as every live peer is; CAN has no
		// live peer and is wired here.
		var gn *grid.Node
		if needCAN {
			cn := can.New(h, spec.Caps, spec.OS, can.Config{
				DisableVirtualDim: s.DisableVirtualDim,
				Space:             s.Workload.Space,
			})
			d.CANs = append(d.CANs, cn)
			var matcher grid.Matchmaker = &match.CAN{CN: cn, Push: s.Alg == AlgCANPush}
			if s.Notify {
				// No ring to hash topics onto: a fixed rendezvous keeps
				// the overlay usable under the CAN algorithms.
				rdv := d.Hosts[0].Addr()
				gcfg.Notify = pubsub.New(h, pubsub.Config{Obs: gcfg.Obs, Lookup: func(rt transport.Runtime, key ids.ID) (transport.Addr, error) {
					return rdv, nil
				}})
				d.Brokers = append(d.Brokers, gcfg.Notify)
			}
			if gcfg.Trust != nil {
				matcher = &match.Trusted{Inner: matcher, Table: gcfg.Trust}
			}
			gn = grid.NewNode(h, spec.Caps, spec.OS, &match.CANOverlay{CAN: cn}, matcher, d.Collector, gcfg)
			cn.SetLoadFn(gn.QueueLen)
		} else {
			var ttl *match.TTL
			cfg := peer.Config{Tree: rntree.Config{K: s.ExtendedSearchK}, Grid: gcfg, Notify: s.Notify}
			switch s.Alg {
			case AlgCentral:
				cfg.Match = func(*chord.Node) grid.Matchmaker { return &match.Central{Reg: d.Registry} }
			case AlgRandom:
				cfg.Match = func(*chord.Node) grid.Matchmaker { return &match.Random{Reg: d.Registry} }
			case AlgTTL:
				cfg.Match = func(ring *chord.Node) grid.Matchmaker {
					ttl = &match.TTL{Ring: ring, Caps: spec.Caps, OS: spec.OS}
					return ttl
				}
			}
			p := peer.New(h, spec.Caps, spec.OS, d.Collector, cfg)
			gn = p.Grid
			d.Chords = append(d.Chords, p.Ring)
			if s.Alg == AlgRNTree {
				d.RNs = append(d.RNs, p.Tree)
			}
			if p.Broker != nil {
				d.Brokers = append(d.Brokers, p.Broker)
			}
			if ttl != nil {
				// The TTL baseline also needs remote probes answered.
				ttl.Load = gn.QueueLen
				match.RegisterProbe(h, spec.Caps, spec.OS, gn.QueueLen, p.Ring)
			}
		}
		d.Grids = append(d.Grids, gn)
		d.Registry.Register(h.Addr(), match.RegistryEntry{
			Caps: spec.Caps,
			OS:   spec.OS,
			Load: gn.QueueLen,
			Up:   ep.Up,
		})
	}

	// Converged overlays without simulating thousands of joins.
	if len(d.Chords) > 0 {
		chord.WarmStart(d.Chords)
	}
	if len(d.RNs) > 0 {
		rntree.WarmStart(d.RNs, time.Duration(e.Now()))
	}
	if len(d.CANs) > 0 {
		can.WarmStart(d.CANs, time.Duration(e.Now()))
	}

	// Start node activities.
	for i := 0; i < n; i++ {
		d.Grids[i].Start()
		if s.Notify {
			d.Brokers[i].Start()
		}
		if s.Maintenance {
			if len(d.Chords) > 0 {
				d.Chords[i].Start()
			}
			if len(d.RNs) > 0 {
				d.RNs[i].Start()
			}
			if len(d.CANs) > 0 {
				d.CANs[i].Start()
			}
		}
	}

	return d
}

// Crash implements faultinject.Harness: node i's endpoint goes down,
// killing every proc it owns.
func (d *Deployment) Crash(i int) { d.Eps[i].Crash() }

// Restart implements faultinject.Harness: the endpoint comes back up
// and the grid layer relaunches its loops with soft state cleared.
// Overlay Start methods are started-flag guarded, so their periodic
// loops stay down after a restart — the node still answers overlay
// RPCs (handlers survive on the endpoint) but degrades until the next
// run, which is the honest post-crash behaviour for this harness.
func (d *Deployment) Restart(i int) {
	d.Eps[i].Restart()
	d.Grids[i].Restart()
	if d.Brokers != nil {
		// The broker restarts alongside the grid node, soft state
		// cleared — replicated subscriber lists recover via push-back.
		d.Brokers[i].Reset()
		d.Brokers[i].Start()
	}
}
