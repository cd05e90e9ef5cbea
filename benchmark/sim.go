package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/faultinject"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// simSpec is one simulated workload: a scenario shape, and how many
// independently seeded instances of it a run of a given length holds.
type simSpec struct {
	nodes, jobs int
	meanRuntime time.Duration
	maintenance bool
	chaos       bool
	// perSecond is the number of instances per second of --seconds. It is
	// sized so that on the seed the instances fill about four fifths of
	// the run; the rest is spent repeating them for more wall samples.
	perSecond float64
	// can also runs the first instance's workload under CAN matchmaking
	// in the traced run, for the paper's RN-Tree/CAN comparison.
	can bool
}

// Sizes are smaller than the paper's so that several instances fit a
// ten-second run; each keeps the paper's offered load of about one
// (arrivals spaced at meanRuntime/nodes).
var simSpecs = map[string]simSpec{
	"sim_maint":  {nodes: 48, jobs: 240, meanRuntime: 20 * time.Second, maintenance: true, perSecond: 0.3},
	"sim_static": {nodes: 100, jobs: 500, meanRuntime: 50 * time.Second, perSecond: 0.5, can: true},
	"sim_chaos":  {nodes: 40, jobs: 80, meanRuntime: 20 * time.Second, maintenance: true, chaos: true, perSecond: 0.4},
}

// chaosPlan is experiments.FaultSweep's "chaos" level: lossy grid
// control traffic, duplicated assign/adopt, a catch-all delay, four
// crashes of which about half restart, and one partition.
func chaosPlan() *faultinject.Plan {
	return &faultinject.Plan{
		Rules: []faultinject.Rule{
			{Method: grid.MAssign, DupProb: 0.2},
			{Method: grid.MAdopt, DupProb: 0.2},
			{Method: grid.MHeartbeat, DropProb: 0.25},
			{Method: grid.MComplete, DropProb: 0.15},
			{Method: grid.MResult, DropProb: 0.15},
			{DelayProb: 0.2, DelayMin: 100 * time.Millisecond, DelayMax: time.Second},
		},
		Crashes:         4,
		RestartProb:     0.5,
		RestartDelayMin: 20 * time.Second,
		RestartDelayMax: time.Minute,
		Partitions:      1,
		PartitionSize:   2,
		PartitionDurMin: 15 * time.Second,
		PartitionDurMax: 45 * time.Second,
	}
}

// scenario builds the i-th instance's scenario; every random choice in
// it (node capabilities, job constraints and arrivals, network
// latencies, the fault schedule) derives from seed and i.
func (s simSpec) scenario(seed int64, i int, alg experiments.Algorithm, stats bool) experiments.Scenario {
	base := workload.NewConfig()
	base.MeanRuntime = s.meanRuntime
	base.MeanInterarrival = s.meanRuntime / time.Duration(s.nodes)
	sub := subSeed(seed, i)
	sc := experiments.Scenario{
		Alg:         alg,
		Workload:    mixedLightly(sub, s.nodes, s.jobs, base),
		NetSeed:     sub + 77,
		Maintenance: s.maintenance,
	}
	minCapable := 1
	if s.chaos {
		// The plan can take six nodes away at once (four crashes and a
		// two-node partition); a job stays matchable if more can run it.
		minCapable = 8
		sc.Faults = chaosPlan()
		sc.FaultSeed = sub + 91
		sc.Notify = true
		sc.Grid = grid.Config{
			ReplicaK:           2,
			CheckpointEvery:    5 * time.Second,
			CheckpointAdaptive: true,
			CheckpointMinEvery: 2 * time.Second,
			CheckpointMaxEvery: 10 * time.Second,
		}
	}
	sc.MutateWorkload = func(w *workload.Workload) { relaxScarce(w, minCapable) }
	if stats {
		sc.Instrument = &experiments.Instrument{Stats: true}
	}
	return sc
}

// instRun is one execution of one instance.
type instRun struct {
	build, wall time.Duration
	res         experiments.Results
	turnaround  []float64 // virtual seconds, delivered jobs
	wait        []float64 // virtual seconds, started jobs
	matchMsgs   float64   // summed over matched jobs
	visits      float64
	escalations float64
	matched     int
	lookups     int64
	lookupHops  int64
	stats       *sim.Stats // nil unless traced
	byMethod    map[string]int64
}

func runInstance(sc experiments.Scenario) instRun {
	t0 := time.Now()
	d := experiments.Build(sc)
	r := instRun{build: time.Since(t0)}
	t1 := time.Now()
	r.res = d.Run()
	r.wall = time.Since(t1)
	r.turnaround = d.Collector.Turnarounds()
	r.wait = d.Collector.WaitTimes()
	for _, c := range d.Collector.MatchCosts() {
		r.matchMsgs += c
	}
	for _, tr := range d.Collector.Jobs() {
		if tr.MatchTries > 0 {
			r.matched++
			r.visits += float64(tr.Match.Visits)
			r.escalations += float64(tr.Match.Escalations)
		}
	}
	for _, ch := range d.Chords {
		r.lookups += ch.Lookups
		r.lookupHops += ch.LookupHops
	}
	r.stats = d.Engine.Stats()
	r.byMethod = d.Net.Stats.ByMethod
	return r
}

// fingerprint is what two executions of one instance must agree on to
// the last bit: the simulation is deterministic, so any difference
// means the run, not the host, changed.
func (r instRun) fingerprint() string {
	sum := 0.0
	for _, t := range r.turnaround {
		sum += t
	}
	return fmt.Sprintf("%d/%d/%d/%d/%d/%v/%x", r.res.Delivered, r.res.Started, r.res.Messages,
		r.res.Resubmits, r.res.Faulted, r.res.SimEnd, math.Float64bits(sum))
}

// simOracle checks one instance: every job delivered, none with a wrong
// digest. It returns the jobs that failed.
func simOracle(r instRun) int {
	failed := r.res.Jobs - r.res.Delivered
	if failed < 0 {
		failed = 0
	}
	return failed + r.res.WrongAccepted
}

func runSim(name string, a runArgs) (*result, error) {
	spec := simSpecs[name]
	spec.nodes = int(float64(spec.nodes) * a.simSize)
	spec.jobs = int(float64(spec.jobs) * a.simSize)
	k := int(math.Round(a.seconds * spec.perSecond))
	if k < 1 {
		k = 1
	}
	if a.trace {
		return runSimTraced(spec, a, k)
	}
	res := &result{metrics: metricSet{}, correct: true}
	deadline := time.Now().Add(time.Duration(a.seconds * float64(time.Second)))

	first := make([]instRun, k)   // the k instances every run executes
	walls := make([][]float64, k) // per instance, every execution's host seconds
	var builds []float64
	exec := func(i int) instRun {
		// Collect the previous execution's garbage outside the timed
		// region, so that peak memory is one instance's and not a sum.
		runtime.GC()
		r := runInstance(spec.scenario(a.seed, i, experiments.AlgRNTree, false))
		walls[i] = append(walls[i], r.wall.Seconds())
		builds = append(builds, r.build.Seconds())
		return r
	}
	for i := range first {
		first[i] = exec(i)
	}
	// Fill the rest of the run with repeats. A repeat adds a host-time
	// sample and must reproduce the first execution exactly.
	longest := 0.0
	for i := range walls {
		longest = math.Max(longest, walls[i][0])
	}
	for i := 0; time.Until(deadline).Seconds() > longest; i = (i + 1) % k {
		if r := exec(i); r.fingerprint() != first[i].fingerprint() {
			res.correct = false
			res.notes = append(res.notes, fmt.Sprintf("ORACLE: instance %d did not repeat: %s then %s", i, first[i].fingerprint(), r.fingerprint()))
		}
	}

	// Virtual-time metrics pool the jobs of all instances. Goodput is
	// the median over instances of each instance's own jobs per host
	// second: an instance whose last job straggles runs long in virtual
	// time, and a mean would let that one seed-dependent tail set the
	// run's speed.
	var turnaround, speeds []float64
	var delivered, started, matched int
	var msgs int64
	var matchMsgs, wall float64
	for i, r := range first {
		res.attempted += r.res.Jobs
		res.failed += simOracle(r)
		turnaround = append(turnaround, r.turnaround...)
		delivered += r.res.Delivered
		started += r.res.Started
		matched += r.matched
		msgs += r.res.Messages
		matchMsgs += r.matchMsgs
		wall += median(walls[i])
		speeds = append(speeds, ratio(float64(r.res.Delivered), median(walls[i])))
	}
	if res.failed > 0 || delivered == 0 {
		res.correct = false
		res.notes = append(res.notes, fmt.Sprintf("ORACLE: %d of %d jobs not delivered exactly once with the expected digest", res.failed, res.attempted))
		if delivered == 0 {
			return res, nil
		}
	}
	m := res.metrics
	m["goodput_jobs_per_s"] = median(speeds)
	m["turnaround_p50_ms"] = median(turnaround) * 1e3
	m["turnaround_p95_ms"] = metrics.Quantile(turnaround, 0.95) * 1e3
	m["turnaround_mean_ms"] = mean(turnaround) * 1e3
	m["match_msgs_per_job"] = matchMsgs / float64(matched)
	m["net_msgs_per_job"] = float64(msgs) / float64(delivered)
	m["starts_per_job"] = float64(started) / float64(delivered)
	m["setup_s"] = median(builds)
	m["peak_rss_mb"] = peakRSSMB()
	q, label := tailQuantile(len(turnaround))
	res.notes = append(res.notes,
		fmt.Sprintf("%d instances of %d nodes / %d jobs, %d executions in all; host wall per instance %.2f s (median)", k, spec.nodes, spec.jobs, len(builds), wall/float64(k)),
		fmt.Sprintf("virtual turnaround: p50 %.2f s, %s %.2f s over %d jobs", median(turnaround), label, metrics.Quantile(turnaround, q), len(turnaround)))
	return res, nil
}

// kernelTags are the sim.Stats attribution buckets reported per layer.
var kernelTags = []string{"chord", "rntree", "can", "grid", "heartbeat", "gossip", "pubsub", "replica"}

// msgFamilies are the simnet per-method tallies reported per layer,
// keyed by metric suffix.
var msgFamilies = map[string]func(method string) bool{
	"chord":          func(m string) bool { return strings.HasPrefix(m, "chord.") },
	"rnt":            func(m string) bool { return strings.HasPrefix(m, "rnt.") },
	"can":            func(m string) bool { return strings.HasPrefix(m, "can.") },
	"grid.heartbeat": func(m string) bool { return m == grid.MHeartbeat },
	"grid.status":    func(m string) bool { return m == grid.MStatus },
	"pubsub":         func(m string) bool { return strings.HasPrefix(m, "pubsub.") },
	"replica":        func(m string) bool { return strings.HasPrefix(m, "replica.") },
}

func runSimTraced(spec simSpec, a runArgs, k int) (*result, error) {
	// Each instance runs twice, kernel statistics off then on, so half
	// as many instances fit the run. The pair gives the tracing overhead.
	if k = (k + 1) / 2; k < 1 {
		k = 1
	}
	res := &result{metrics: metricSet{}, correct: true}
	m := res.metrics
	var plainWall, tracedWall, cpuMS float64
	var delivered, matched int
	var visits, escalations float64
	var lookups, lookupHops int64
	var wait []float64
	for i := 0; i < k; i++ {
		plain := runInstance(spec.scenario(a.seed, i, experiments.AlgRNTree, false))
		cpu0 := cpuNow()
		r := runInstance(spec.scenario(a.seed, i, experiments.AlgRNTree, true))
		cpuMS += (cpuNow() - cpu0).Seconds() * 1e3
		if plain.fingerprint() != r.fingerprint() {
			res.correct = false
			res.notes = append(res.notes, fmt.Sprintf("ORACLE: instance %d differs with kernel statistics on: %s then %s", i, plain.fingerprint(), r.fingerprint()))
		}
		res.attempted += r.res.Jobs
		res.failed += simOracle(r)
		plainWall += plain.wall.Seconds()
		tracedWall += r.wall.Seconds()
		delivered += r.res.Delivered
		matched += r.matched
		visits += r.visits
		escalations += r.escalations
		lookups += r.lookups
		lookupHops += r.lookupHops
		wait = append(wait, r.wait...)

		st := r.stats
		m["sim.events_fired"] += float64(st.EventsFired)
		m["sim.switches"] += float64(st.Switches)
		m["sim.stale_wakes"] += float64(st.StaleWakes)
		m["sim.kernel_wall_s"] += float64(st.WallNS) / 1e9
		m["sim.peak_event_heap"] = math.Max(m["sim.peak_event_heap"], float64(st.PeakQueue))
		m["sim.peak_procs"] = math.Max(m["sim.peak_procs"], float64(st.PeakProcs))
		for _, tag := range kernelTags {
			if t := st.ByTag[tag]; t != nil {
				m[tag+".sim_events"] += float64(t.Fired)
				m[tag+".sim_wall_s"] += float64(t.WallNS) / 1e9
			}
		}
		m["simnet.msgs"] += float64(r.res.Messages)
		m["simnet.faulted"] += float64(r.res.Faulted)
		for method, n := range r.byMethod {
			for fam, in := range msgFamilies {
				if in(method) {
					m["simnet.msgs."+fam] += float64(n)
				}
			}
		}
		m["grid.run_failures"] += float64(r.res.RunFailures)
		m["grid.owner_failures"] += float64(r.res.OwnerFailures)
		m["grid.adoptions"] += float64(r.res.Adoptions)
		m["grid.dup_starts"] += float64(r.res.DupStarts)
		m["grid.gave_up"] += float64(r.res.GaveUp)
		m["grid.owner.match_failed"] += float64(r.res.MatchFailed)
		m["grid.client.resubmits"] += float64(r.res.Resubmits)
		m["grid.checkpoints"] += float64(r.res.Checkpoints)
		m["grid.resumes"] += float64(r.res.Resumes)
		m["grid.wasted_work_s"] += r.res.WastedWork.Seconds()
		m["grid.reexec_work_s"] += r.res.ReexecutedWork.Seconds()
		m["grid.useful_work_s"] += r.res.UsefulWork.Seconds()
		m["replica.promotions"] += float64(r.res.Promotions)
		m["replica.handoffs"] += float64(r.res.Handoffs)
		m["replica.restores"] += float64(r.res.Restores)
		m["replica.demotions"] += float64(r.res.Demotions)
		m["pubsub.notify_recv"] += float64(r.res.NotifyRecv)
	}
	if res.failed > 0 || delivered == 0 {
		res.correct = false
		res.notes = append(res.notes, fmt.Sprintf("ORACLE: %d of %d jobs not delivered exactly once with the expected digest", res.failed, res.attempted))
		if delivered == 0 {
			return res, nil
		}
	}
	jobs := float64(delivered)
	m["sim.events_per_s"] = ratio(m["sim.events_fired"], m["sim.kernel_wall_s"])
	m["sim.switches_per_event"] = ratio(m["sim.switches"], m["sim.events_fired"])
	delete(m, "sim.switches")
	m["grid.reexec_work_share"] = ratio(m["grid.reexec_work_s"], m["grid.useful_work_s"])
	delete(m, "grid.reexec_work_s")
	delete(m, "grid.useful_work_s")
	m["process.cpu_ms_per_job"] = cpuMS / jobs
	m["grid.wait_mean_ms"] = mean(wait) * 1e3
	m["grid.heartbeats_per_job"] = m["simnet.msgs.grid.heartbeat"] / jobs
	m["match.visits_per_job"] = visits / jobs
	m["rntree.searches_per_job"] = float64(matched) / jobs
	m["rntree.visits_mean"] = ratio(visits, float64(matched))
	m["rntree.escalations_mean"] = ratio(escalations, float64(matched))
	m["rntree.no_candidate"] = m["grid.owner.match_failed"]
	m["chord.lookups_per_job"] = float64(lookups) / jobs
	m["chord.lookup_hops_mean"] = ratio(float64(lookupHops), float64(lookups))
	m["obs.trace_overhead_share"] = tracedWall/plainWall - 1
	m["sim.schedule_ns"] = probeSchedule()
	m["sim.proc_switch_ns"] = probeProcSwitch()

	var gen []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		workload.Generate(spec.scenario(a.seed, 0, experiments.AlgRNTree, false).Workload)
		gen = append(gen, time.Since(t0).Seconds()*1e3)
	}
	m["workload.generate_ms"] = median(gen)

	if spec.can {
		c := runInstance(spec.scenario(a.seed, 0, experiments.AlgCAN, true))
		if t := c.stats.ByTag["can"]; t != nil {
			m["can.sim_events"] = float64(t.Fired)
			m["can.sim_wall_s"] = float64(t.WallNS) / 1e9
		}
		for method, n := range c.byMethod {
			if msgFamilies["can"](method) {
				m["simnet.msgs.can"] += float64(n)
			}
		}
		m["can.wait_mean_s"] = c.res.Wait.Mean
		m["can.match_msgs_per_job"] = c.res.MatchCost.Mean
		m["can.delivered_share"] = ratio(float64(c.res.Delivered), float64(c.res.Jobs))
	}
	res.notes = append(res.notes, fmt.Sprintf("%d instances, each run with kernel statistics off (%.2f s in all) and on (%.2f s)", k, plainWall, tracedWall))
	return res, nil
}
