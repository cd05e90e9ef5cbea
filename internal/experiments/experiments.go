package experiments

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/can"
	"repro/internal/chord"
	"repro/internal/grid"
	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/workload"
)

// Options control experiment size so the same drivers serve quick CI
// runs (Scale ~0.05-0.2) and full paper-scale runs (Scale 1).
type Options struct {
	// Scale shrinks the paper's 1000-node / 5000-job workload.
	Scale float64
	// Seed offsets all randomness.
	Seed int64
	// Verbose receives progress lines (may be nil).
	Verbose func(format string, args ...any)
	// Instrument, if non-nil, attaches kernel-level observability to
	// every engine the drivers create (gridsim's -simstats and the
	// simbench harness ride on it).
	Instrument *Instrument
}

// Instrument configures simulation-kernel observability for a run. It
// is deliberately outside Scenario's protocol knobs: instrumentation
// must never change what the simulation does, only what is recorded
// about it (sim.Stats is replay-neutral by construction).
type Instrument struct {
	// Stats enables the kernel's event/switch/wall-clock collector.
	Stats bool
	// OnStats is called after each instrumented run with a short label
	// and the engine's collector (requires Stats).
	OnStats func(label string, st *sim.Stats)
}

// Build wires o's instrumentation into the scenario and builds it.
// Drivers use this instead of the package-level Build so every
// experiment honours gridsim's -simstats flag.
func (o Options) Build(s Scenario) *Deployment {
	s.Instrument = o.Instrument
	return Build(s)
}

// engine creates a bare engine (for drivers that bypass Build, like
// the DHT study) with o's instrumentation applied.
func (o Options) engine(seed int64) *sim.Engine {
	e := sim.NewEngine(seed)
	if ins := o.Instrument; ins != nil && ins.Stats {
		e.EnableStats()
	}
	return e
}

// reportStats flushes an instrumented engine's collector to the
// OnStats sink, if both halves are configured.
func (o Options) reportStats(label string, e *sim.Engine) {
	if ins := o.Instrument; ins != nil && ins.OnStats != nil && e.Stats() != nil {
		ins.OnStats(label, e.Stats())
	}
}

func (o Options) logf(format string, args ...any) {
	if o.Verbose != nil {
		o.Verbose(format, args...)
	}
}

func (o Options) base() workload.Config {
	cfg := workload.NewConfig()
	cfg.Seed = o.Seed + 1
	if o.Scale > 0 && o.Scale < 1 {
		cfg = cfg.Scale(o.Scale)
	}
	return cfg
}

// fmtF formats a float cell.
func fmtF(v float64) string { return fmt.Sprintf("%.1f", v) }

// --- Figure 2: job wait times ---

// Fig2Row is one (constraint level, algorithm) cell pair of a Figure 2
// panel.
type Fig2Row struct {
	Level    workload.ConstraintLevel
	Alg      Algorithm
	WaitMean float64
	WaitStd  float64
	Results  Results
}

// Fig2 reproduces one pair of Figure 2 panels: average and standard
// deviation of job wait time for the given population quadrant, for
// RN-Tree, CAN, and the centralized baseline, at both constraint
// levels.
func Fig2(pop workload.Population, o Options) ([]Fig2Row, *Table) {
	algs := []Algorithm{AlgRNTree, AlgCAN, AlgCentral}
	levels := []workload.ConstraintLevel{workload.Lightly, workload.Heavily}
	var rows []Fig2Row
	tbl := &Table{
		Title:  fmt.Sprintf("Figure 2 (%s workloads): job wait time (s)", pop),
		Header: []string{"constraints", "algorithm", "avg-wait", "stdev-wait", "delivered", "match-msgs"},
	}
	for _, level := range levels {
		for _, alg := range algs {
			wcfg := o.base()
			wcfg.NodePop = pop
			wcfg.JobPop = pop
			wcfg.Level = level
			o.logf("fig2 %s/%s/%s: %d nodes, %d jobs", pop, level, alg, wcfg.Nodes, wcfg.Jobs)
			res := o.Build(Scenario{Alg: alg, Workload: wcfg, NetSeed: o.Seed + 77}).Run()
			rows = append(rows, Fig2Row{Level: level, Alg: alg, WaitMean: res.Wait.Mean, WaitStd: res.Wait.Std, Results: res})
			tbl.Rows = append(tbl.Rows, []string{
				level.String(), alg.String(),
				fmtF(res.Wait.Mean), fmtF(res.Wait.Std),
				fmt.Sprintf("%d/%d", res.Delivered, res.Jobs),
				fmtF(res.MatchCost.Mean),
			})
		}
	}
	return rows, tbl
}

// --- tab1: matchmaking cost (claim: "small number of hops") ---

// MatchCost measures matchmaking message cost and node visits for every
// workload quadrant, for RN-Tree and CAN — the paper's "results not
// shown" verification that both find run nodes with a small number of
// hops through the overlay.
func MatchCost(o Options) *Table {
	tbl := &Table{
		Title:  "Table 1: matchmaking cost (messages and node visits per job)",
		Header: []string{"workload", "constraints", "algorithm", "avg-msgs", "p95-msgs", "avg-visits", "avg-wait"},
	}
	for _, pop := range []workload.Population{workload.Clustered, workload.Mixed} {
		for _, level := range []workload.ConstraintLevel{workload.Lightly, workload.Heavily} {
			for _, alg := range []Algorithm{AlgRNTree, AlgCAN} {
				wcfg := o.base()
				wcfg.NodePop = pop
				wcfg.JobPop = pop
				wcfg.Level = level
				o.logf("tab1 %s/%s/%s", pop, level, alg)
				res := o.Build(Scenario{Alg: alg, Workload: wcfg, NetSeed: o.Seed + 78}).Run()
				tbl.Rows = append(tbl.Rows, []string{
					pop.String(), level.String(), alg.String(),
					fmtF(res.MatchCost.Mean), fmtF(res.MatchCost.P95),
					fmtF(res.MatchVisits.Mean), fmtF(res.Wait.Mean),
				})
			}
		}
	}
	return tbl
}

// --- tab2: CAN load pushing ---

// CANPush reproduces the paper's preliminary claim that load-based
// pushing "dramatically improves the quality of load balancing
// compared to the basic scheme ... still with low matchmaking cost",
// in the pathological quadrant (mixed nodes, lightly-constrained jobs).
func CANPush(o Options) *Table {
	tbl := &Table{
		Title:  "Table 2: CAN load pushing (mixed nodes, lightly-constrained jobs)",
		Header: []string{"algorithm", "avg-wait", "stdev-wait", "imbalance-cv", "avg-msgs", "delivered"},
	}
	for _, alg := range []Algorithm{AlgCAN, AlgCANPush, AlgCentral} {
		wcfg := o.base()
		wcfg.NodePop = workload.Mixed
		wcfg.JobPop = workload.Mixed
		wcfg.Level = workload.Lightly
		o.logf("tab2 %s", alg)
		res := o.Build(Scenario{Alg: alg, Workload: wcfg, NetSeed: o.Seed + 79}).Run()
		tbl.Rows = append(tbl.Rows, []string{
			alg.String(), fmtF(res.Wait.Mean), fmtF(res.Wait.Std),
			fmt.Sprintf("%.2f", res.ImbalanceCV), fmtF(res.MatchCost.Mean),
			fmt.Sprintf("%d/%d", res.Delivered, res.Jobs),
		})
	}
	return tbl
}

// --- tab3: DHT behaviour ---

// DHTRow is one network size's lookup/routing measurements.
type DHTRow struct {
	N          int
	ChordHops  float64
	ChordExp   float64 // 0.5*log2(N)
	CANHops    float64
	CANExp     float64 // (d/4)*N^(1/d)
	ChordMsgs  int64   // maintenance messages over the window
	CANMsgs    int64
	WindowSecs float64
}

// DHTBehavior reproduces the "basic behavior of a P2P network" study:
// creating and maintaining the overlay and performing lookups, across
// network sizes.
func DHTBehavior(sizes []int, o Options) ([]DHTRow, *Table) {
	if len(sizes) == 0 {
		sizes = []int{64, 256, 1024}
	}
	const lookups = 200
	const window = 30 * time.Second
	var rows []DHTRow
	tbl := &Table{
		Title:  "Table 3: DHT lookup hops and maintenance cost vs network size",
		Header: []string{"nodes", "chord-hops", "0.5*log2N", "can-hops", "(d/4)N^(1/d)", "chord-maint-msg/s/node", "can-maint-msg/s/node"},
	}
	for _, n := range sizes {
		o.logf("tab3 N=%d", n)
		row := DHTRow{N: n, ChordExp: 0.5 * math.Log2(float64(n)), WindowSecs: window.Seconds()}
		row.CANExp = float64(can.Dims) / 4 * math.Pow(float64(n), 1/float64(can.Dims))

		// Chord: warm-start, measure lookups, then maintenance traffic.
		{
			e := o.engine(o.Seed + 5)
			net := simnet.New(e)
			hosts := make([]*simnet.Endpoint, n)
			nodes := make([]*chord.Node, n)
			for i := 0; i < n; i++ {
				hosts[i] = net.NewEndpoint(transport.Addr(fmt.Sprintf("n%05d", i)))
				nodes[i] = chord.New(hosts[i], chord.Config{})
			}
			chord.WarmStart(nodes)
			total, count := 0, 0
			done := false
			hosts[0].Go("lookups", func(rt transport.Runtime) {
				rng := rt.Rand()
				for i := 0; i < lookups; i++ {
					src := nodes[rng.Intn(n)]
					_, hops, err := src.Lookup(rt, ids.HashString(fmt.Sprintf("key%d", i)))
					if err == nil {
						total += hops
						count++
					}
				}
				done = true
			})
			for !done {
				e.RunFor(10 * time.Second)
			}
			if count > 0 {
				row.ChordHops = float64(total) / float64(count)
			}
			before := net.Stats.Messages
			for _, nd := range nodes {
				nd.Start()
			}
			e.RunFor(window)
			row.ChordMsgs = net.Stats.Messages - before
			e.Shutdown()
			o.reportStats(fmt.Sprintf("tab3 chord N=%d", n), e)
		}

		// CAN: warm-start, measure routes, then gossip traffic.
		{
			e := o.engine(o.Seed + 6)
			net := simnet.New(e)
			hosts := make([]*simnet.Endpoint, n)
			nodes := make([]*can.Node, n)
			for i := 0; i < n; i++ {
				hosts[i] = net.NewEndpoint(transport.Addr(fmt.Sprintf("n%05d", i)))
				nodes[i] = can.New(hosts[i], capsForIndex(i), "linux", can.Config{})
			}
			can.WarmStart(nodes, 0)
			total, count := 0, 0
			done := false
			hosts[0].Go("routes", func(rt transport.Runtime) {
				rng := rt.Rand()
				for i := 0; i < lookups; i++ {
					src := nodes[rng.Intn(n)]
					var target can.Point
					for d := range target {
						target[d] = rng.Float64()
					}
					_, hops, err := src.Route(rt, target)
					if err == nil {
						total += hops
						count++
					}
				}
				done = true
			})
			for !done {
				e.RunFor(10 * time.Second)
			}
			if count > 0 {
				row.CANHops = float64(total) / float64(count)
			}
			before := net.Stats.Messages
			for _, nd := range nodes {
				nd.Start()
			}
			e.RunFor(window)
			row.CANMsgs = net.Stats.Messages - before
			e.Shutdown()
			o.reportStats(fmt.Sprintf("tab3 can N=%d", n), e)
		}

		rows = append(rows, row)
		perNodeSec := func(msgs int64) string {
			return fmt.Sprintf("%.2f", float64(msgs)/window.Seconds()/float64(n))
		}
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprint(n),
			fmt.Sprintf("%.2f", row.ChordHops), fmt.Sprintf("%.2f", row.ChordExp),
			fmt.Sprintf("%.2f", row.CANHops), fmt.Sprintf("%.2f", row.CANExp),
			perNodeSec(row.ChordMsgs), perNodeSec(row.CANMsgs),
		})
	}
	return rows, tbl
}

func capsForIndex(i int) resource.Vector {
	return resource.Vector{
		float64(1 + i%10),
		float64(256 + (i*331)%7936),
		float64(1 + (i*97)%499),
	}
}

// --- tab4: robustness under churn ---

// Robustness exercises the Section 2 failure-recovery protocols: crash
// a fraction of nodes during the run and verify jobs still complete via
// owner rematching, run-node adoption, and client resubmission.
func Robustness(churns []float64, o Options) *Table {
	if len(churns) == 0 {
		churns = []float64{0, 0.05, 0.15, 0.30}
	}
	tbl := &Table{
		Title:  "Table 4: robustness under churn (RN-Tree matchmaking, maintenance on)",
		Header: []string{"churn", "delivered", "run-failures", "owner-failures", "adoptions", "resubmits", "avg-wait", "avg-turnaround"},
	}
	for _, churn := range churns {
		o.logf("tab4 churn=%.2f", churn)
		res := o.Build(churnScenario(churn, o)).Run()
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("%.0f%%", churn*100),
			fmt.Sprintf("%d/%d", res.Delivered, res.Jobs),
			fmt.Sprint(res.RunFailures), fmt.Sprint(res.OwnerFailures),
			fmt.Sprint(res.Adoptions), fmt.Sprint(res.Resubmits),
			fmtF(res.Wait.Mean), fmtF(res.Turnaround.Mean),
		})
	}
	return tbl
}

// churnScenario is Table 4's deployment at one churn level.
func churnScenario(churn float64, o Options) Scenario {
	wcfg := o.base()
	// Smaller, failure-focused workload: fewer jobs, same load.
	wcfg.Jobs = wcfg.Jobs / 5
	wcfg.NodePop = workload.Mixed
	wcfg.JobPop = workload.Mixed
	wcfg.Level = workload.Lightly
	return Scenario{
		Alg:         AlgRNTree,
		Workload:    wcfg,
		NetSeed:     o.Seed + 80,
		Maintenance: true,
		Churn:       churn,
	}
}

// --- tab5: TTL search misses rare resources ---

// TTLFailure reproduces the related-work criticism: a TTL-bounded
// search "may fail to find a resource capable of running a given job,
// even though such a resource exists somewhere in the network", while
// the DHT-structured matchmakers find it. Every job requires a CPU
// speed only the top ~3% of nodes possess, so a blind 10-probe search
// usually misses while the RN-Tree's aggregates and CAN's geometry
// route straight to the capable region.
func TTLFailure(o Options) *Table {
	tbl := &Table{
		Title:  "Table 5: rare-resource discovery, TTL flooding vs structured matchmaking",
		Header: []string{"algorithm", "delivered", "match-failures", "gave-up", "capable-nodes", "avg-msgs"},
	}
	rare := func(w *workload.Workload) {
		// Threshold at the 97th percentile of node CPU speeds.
		speeds := make([]float64, len(w.Nodes))
		for i, n := range w.Nodes {
			speeds[i] = n.Caps[resource.CPU]
		}
		sort.Float64s(speeds)
		thr := speeds[len(speeds)*97/100]
		for i := range w.Jobs {
			w.Jobs[i].Cons = resource.Unconstrained.Require(resource.CPU, thr)
		}
	}
	for _, alg := range []Algorithm{AlgTTL, AlgRNTree, AlgCAN, AlgCentral} {
		wcfg := o.base()
		wcfg.Jobs = wcfg.Jobs / 10
		// Stretch arrivals so the few capable nodes can absorb the work.
		wcfg.MeanInterarrival *= 10
		wcfg.NodePop = workload.Mixed
		wcfg.JobPop = workload.Mixed
		o.logf("tab5 %s", alg)
		d := o.Build(Scenario{
			Alg:            alg,
			Workload:       wcfg,
			NetSeed:        o.Seed + 81,
			MutateWorkload: rare,
		})
		capable := d.W.SatisfiableBy(d.W.Jobs[0])
		res := d.Run()
		tbl.Rows = append(tbl.Rows, []string{
			alg.String(),
			fmt.Sprintf("%d/%d", res.Delivered, res.Jobs),
			fmt.Sprint(res.MatchFailed), fmt.Sprint(res.GaveUp),
			fmt.Sprintf("%d/%d", capable, res.Nodes),
			fmtF(res.MatchCost.Mean),
		})
	}
	return tbl
}

// --- ablations ---

// VirtualDimAblation quantifies the virtual dimension's effect on CAN
// load balance (Section 3.2's identical-node clustering problem).
func VirtualDimAblation(o Options) *Table {
	tbl := &Table{
		Title:  "Ablation: CAN virtual dimension (clustered nodes, lightly-constrained jobs)",
		Header: []string{"virtual-dim", "avg-wait", "stdev-wait", "imbalance-cv", "delivered"},
	}
	for _, disable := range []bool{false, true} {
		wcfg := o.base()
		wcfg.NodePop = workload.Clustered
		wcfg.JobPop = workload.Clustered
		wcfg.Level = workload.Lightly
		o.logf("ablation virtualdim disable=%v", disable)
		res := o.Build(Scenario{
			Alg:               AlgCAN,
			Workload:          wcfg,
			NetSeed:           o.Seed + 82,
			DisableVirtualDim: disable,
		}).Run()
		label := "on"
		if disable {
			label = "off"
		}
		tbl.Rows = append(tbl.Rows, []string{
			label, fmtF(res.Wait.Mean), fmtF(res.Wait.Std),
			fmt.Sprintf("%.2f", res.ImbalanceCV),
			fmt.Sprintf("%d/%d", res.Delivered, res.Jobs),
		})
	}
	return tbl
}

// ExtendedSearchAblation quantifies the RN-Tree extended search
// ("rather than stopping at the first candidate ... the search proceeds
// until at least k capable nodes are found for better load balancing").
func ExtendedSearchAblation(o Options) *Table {
	tbl := &Table{
		Title:  "Ablation: RN-Tree extended search k (mixed nodes, heavily-constrained jobs)",
		Header: []string{"k", "avg-wait", "stdev-wait", "avg-visits", "delivered"},
	}
	for _, k := range []int{1, 4, 8} {
		wcfg := o.base()
		wcfg.NodePop = workload.Mixed
		wcfg.JobPop = workload.Mixed
		wcfg.Level = workload.Heavily
		o.logf("ablation k=%d", k)
		res := o.Build(Scenario{
			Alg:             AlgRNTree,
			Workload:        wcfg,
			NetSeed:         o.Seed + 83,
			ExtendedSearchK: k,
		}).Run()
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprint(k), fmtF(res.Wait.Mean), fmtF(res.Wait.Std),
			fmtF(res.MatchVisits.Mean),
			fmt.Sprintf("%d/%d", res.Delivered, res.Jobs),
		})
	}
	return tbl
}

// FairnessAblation exercises the fairness extension (the paper's other
// future-work item): a heavy client floods the grid while a light
// client submits occasionally; fair-share run queues should cut the
// light client's turnaround without hurting overall completion.
func FairnessAblation(o Options) *Table {
	tbl := &Table{
		Title:  "Ablation: fair-share run queues (heavy vs light client)",
		Header: []string{"discipline", "light-avg-turnaround", "heavy-avg-turnaround", "overall-avg-wait", "delivered"},
	}
	for _, fair := range []bool{false, true} {
		wcfg := o.base()
		// Two clients with an 8:1 submission ratio, on a grid half the
		// usual size so queues actually form.
		wcfg.Clients = 2
		wcfg.Nodes /= 2
		wcfg.NodePop = workload.Mixed
		wcfg.JobPop = workload.Mixed
		wcfg.Level = workload.Heavily
		o.logf("ablate-fair fair=%v", fair)
		d := o.Build(Scenario{
			Alg:      AlgRNTree,
			Workload: wcfg,
			NetSeed:  o.Seed + 84,
			Grid:     grid.Config{FairShare: fair},
		})
		lightAddr := d.Hosts[d.clients[0]].Addr()
		heavyAddr := d.Hosts[d.clients[1]].Addr()
		res := d.Run()
		var light, heavy []float64
		for _, tr := range d.Collector.Jobs() {
			ta, ok := tr.Turnaround()
			if !ok {
				continue
			}
			switch tr.Client {
			case lightAddr:
				light = append(light, ta.Seconds())
			case heavyAddr:
				heavy = append(heavy, ta.Seconds())
			}
		}
		name := "fifo"
		if fair {
			name = "fair-share"
		}
		tbl.Rows = append(tbl.Rows, []string{
			name,
			fmtF(metrics.Summarize(light).Mean),
			fmtF(metrics.Summarize(heavy).Mean),
			fmtF(res.Wait.Mean),
			fmt.Sprintf("%d/%d", res.Delivered, res.Jobs),
		})
	}
	return tbl
}
