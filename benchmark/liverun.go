package main

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"strings"
	"syscall"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/resource"
	"repro/internal/workload"
)

// liveSpec is one live workload.
type liveSpec struct {
	work time.Duration
	// rate > 0 makes the loop open at that many jobs per second, one
	// grid.inject per job; otherwise it is closed with the window below.
	rate          float64
	window, batch int
}

var liveSpecs = map[string]liveSpec{
	"live_ctrl":    {work: 0, window: 256, batch: 64},
	"live_exec":    {work: 20 * time.Millisecond, window: 256, batch: 64},
	"live_trickle": {work: 0, rate: 100},
}

const (
	livePeers = 5
	// consPool is how many distinct job constraint sets a live run
	// cycles through.
	consPool = 512
	// setupsPerRun is how many deployments an untraced live run builds
	// so that setup_s is a median, not one launch.
	setupsPerRun = 3
	drainLimit   = 30 * time.Second
	// warmup is driven and drained before the measured phase of every
	// deployment and reported nowhere. Runs shorter than four seconds
	// warm up for a quarter of their length.
	warmup = time.Second
)

// liveInputs derives the peers' capabilities and the jobs' constraints
// from the seed: the paper's mixed population, lightly constrained.
func liveInputs(seed int64, peers int) ([]workload.NodeSpec, []resource.Constraints) {
	w := workload.Generate(mixedLightly(subSeed(seed, 0), peers, consPool, workload.NewConfig()))
	relaxScarce(w, 1)
	cons := make([]resource.Constraints, len(w.Jobs))
	for i, j := range w.Jobs {
		cons[i] = j.Cons
	}
	return w.Nodes, cons
}

// livePhase is one deployment driven for one measured phase.
type livePhase struct {
	out    liveOutcome
	cpuMS  float64 // process user+sys CPU over the measured phase
	setup  time.Duration
	reg    regView // registry growth over the measured phase
	count  counts  // recorder tallies over the measured phase
	ledger *ledger // nil untraced
	client *liveClient
	probes map[string]float64 // nil untraced
}

func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set. It is read from
// VmHWM, which belongs to this program's own address space. The
// ru_maxrss of getrusage survives fork and exec, so under `go run` it
// reads the go tool's own peak (about 30 MB) whenever that is larger;
// it is the fallback where /proc is absent.
func peakRSSMB() float64 {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb float64
				if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// listenRetry builds the deployment at portBase, moving up by 200 when
// something else holds a port. Only the first base gives the node IDs
// the checked-in numbers were taken with, so a move is reported.
func listenRetry(portBase int, nodes []workload.NodeSpec, in liveInstr, notes *[]string) (*liveGrid, int, error) {
	var err error
	for k := 0; k < 5; k++ {
		base := portBase + 200*k
		var g *liveGrid
		if g, err = buildLive(base, nodes, in); err == nil {
			if k > 0 {
				*notes = append(*notes, fmt.Sprintf("port base %d busy, used %d: node IDs differ from the default layout", portBase, base))
			}
			return g, base, nil
		}
		if !errors.Is(err, syscall.EADDRINUSE) {
			break
		}
	}
	return nil, 0, err
}

func runLivePhase(spec liveSpec, a runArgs, dur time.Duration, traced bool, notes *[]string) (*livePhase, error) {
	nodes, cons := liveInputs(a.seed, a.peers)
	epoch := time.Now()
	ph := &livePhase{}
	in := liveInstr{counts: obs.New(), layers: traced}
	counter := &matchCounter{}
	in.rec = counter
	if traced {
		ph.ledger = newLedger(epoch)
		counter = &ph.ledger.matchCounter
		in.rec = ph.ledger
	}
	g, base, err := listenRetry(a.portBase, nodes, in, notes)
	if err != nil {
		return nil, err
	}
	defer g.close()
	ph.setup = g.setup
	c, err := newLiveClient(base+clientPortOffset, epoch, cons, spec.work)
	if err != nil {
		return nil, err
	}
	defer c.host.Close()
	c.host.SetObs(in.counts)
	ph.client = c

	drive := func(d time.Duration) {
		if spec.rate > 0 {
			c.runOpen(g.addrs(), d, spec.rate)
		} else {
			c.runClosed(g.addrs(), d, spec.window, spec.batch)
		}
		c.drain(drainLimit)
	}
	drive(min(warmup, dur/4))
	c.endWarmup()
	warm := snapshot(in.counts)
	warmCount := counter.snapshot()
	cpu0 := cpuNow()
	drive(dur)
	ph.cpuMS = (cpuNow() - cpu0).Seconds() * 1e3
	ph.reg = snapshot(in.counts).minus(warm)
	ph.count = counter.snapshot().minus(warmCount)
	ph.out = c.outcome()
	if ph.out.exactOnce == 0 {
		return nil, errors.New("no job was delivered")
	}
	if traced {
		p50, p99 := probeEcho(g)
		ph.probes = map[string]float64{
			"nettransport.rpc_echo_us_p50": p50,
			"nettransport.rpc_echo_us_p99": p99,
			"chord.lookup_us_p50":          probeLookup(g),
			"rntree.find_us_p50":           probeFind(g),
			"wire.roundtrip_us":            probeWire(),
		}
	}
	return ph, nil
}

// goodput is jobs delivered exactly once per second of the span from
// the first send to the last result.
func (ph *livePhase) goodput() float64 {
	return float64(ph.out.exactOnce) / ph.out.span.Seconds()
}

// endToEnd fills the end-to-end metrics of a live phase; setup_s and
// peak_rss_mb are the caller's.
func (ph *livePhase) endToEnd(m metricSet) {
	jobs := float64(ph.out.exactOnce)
	m["goodput_jobs_per_s"] = ph.goodput()
	m["turnaround_p50_ms"] = median(ph.out.turnaround)
	m["turnaround_p95_ms"] = metrics.Quantile(ph.out.turnaround, 0.95)
	m["turnaround_mean_ms"] = mean(ph.out.turnaround)
	m["match_msgs_per_job"] = float64(ph.count.msgs) / jobs
	m["net_msgs_per_job"] = ph.reg.sum("rpc_client_calls_total") / jobs
	m["starts_per_job"] = float64(ph.count.started) / jobs
}

func runLive(name string, a runArgs) (*result, error) { return runLiveSpec(liveSpecs[name], a) }

func runLiveSpec(spec liveSpec, a runArgs) (*result, error) {
	res := &result{metrics: metricSet{}}
	dur := time.Duration(a.seconds * float64(time.Second))
	if a.trace {
		return runLiveTraced(spec, a, dur, res)
	}
	ph, err := runLivePhase(spec, a, dur, false, &res.notes)
	if err != nil {
		return nil, err
	}
	setups := []float64{ph.setup.Seconds()}
	for len(setups) < a.setups {
		nodes, _ := liveInputs(a.seed, a.peers)
		g, _, err := listenRetry(a.portBase, nodes, liveInstr{}, &res.notes)
		if err != nil {
			return nil, err
		}
		g.close()
		setups = append(setups, g.setup.Seconds())
	}
	ph.endToEnd(res.metrics)
	res.metrics["setup_s"] = median(setups)
	res.metrics["peak_rss_mb"] = peakRSSMB()
	res.oracle(ph.out)
	q, label := tailQuantile(len(ph.out.turnaround))
	res.notes = append(res.notes,
		fmt.Sprintf("turnaround: p50 %.2f ms, %s %.2f ms over %d jobs", median(ph.out.turnaround), label, metrics.Quantile(ph.out.turnaround, q), len(ph.out.turnaround)),
		fmt.Sprintf("set-up: %d deployments, %.3f s each at most", len(setups), slices.Max(setups)))
	return res, nil
}

// oracle turns the client's tallies into the run's verdict: every
// submitted job delivered exactly once with the digest
// grid.ResultDigest gives.
func (r *result) oracle(o liveOutcome) {
	r.attempted = o.submitted
	r.failed = o.failed()
	r.correct = r.failed == 0 && o.duplicates == 0 && o.unknown == 0
	if !r.correct {
		r.notes = append(r.notes, fmt.Sprintf("ORACLE: %d submitted, %d exactly once, %d missing, %d wrong digest, %d duplicate results, %d unknown results",
			o.submitted, o.exactOnce, o.missing, o.wrong, o.duplicates, o.unknown))
	}
}

func runLiveTraced(spec liveSpec, a runArgs, dur time.Duration, res *result) (*result, error) {
	// Half the time untraced, half traced, on fresh deployments of the
	// same inputs: the pair gives the tracing overhead.
	plain, err := runLivePhase(spec, a, dur/2, false, &res.notes)
	if err != nil {
		return nil, err
	}
	ph, err := runLivePhase(spec, a, dur/2, true, &res.notes)
	if err != nil {
		return nil, err
	}
	res.oracle(ph.out)
	m := res.metrics
	jobs := float64(ph.out.exactOnce)

	samples, skipped := ph.ledger.stageSamples(ph.client)
	stageSum := 0.0
	for k, name := range stageNames {
		p50 := median(samples[k])
		stageSum += p50
		m[name+"_p50"] = p50
		m[name+"_p99"] = metrics.Quantile(samples[k], 0.99)
	}
	p50 := median(ph.out.turnaround)
	m["grid.ledger.gap_share"] = (p50 - stageSum) / p50
	if gap := m["grid.ledger.gap_share"]; gap > 0.15 || gap < -0.15 {
		res.notes = append(res.notes, fmt.Sprintf("LEDGER: stage medians sum to %.2f ms, turnaround p50 is %.2f ms: gap %.0f%%", stageSum, p50, gap*100))
	}
	if skipped > 0 {
		res.notes = append(res.notes, fmt.Sprintf("ledger: %d jobs skipped for incomplete stamps", skipped))
	}
	if spec.work > 0 {
		m["grid.runnode.exec_efficiency"] = ph.goodput() / (float64(a.peers) / spec.work.Seconds())
	}
	m["process.cpu_ms_per_job"] = ph.cpuMS / jobs
	m["grid.client.turnaround_p99_ms"] = metrics.Quantile(ph.out.turnaround, 0.99)
	m["grid.wait_mean_ms"] = mean(ph.out.wait)
	m["grid.client.inject_rpc_ms_p50"] = median(ph.out.rpcLat)
	m["grid.client.generator_late_ms_max"] = ph.out.lateMaxMS
	m["grid.client.resubmits"] = float64(ph.out.resubmits)
	m["grid.heartbeats_per_job"] = ph.reg.sum("grid_heartbeats_sent_total") / jobs
	m["grid.owner.match_failed"] = float64(ph.count.matchFailed)
	m["match.visits_per_job"] = ph.reg["grid_match_visits_sum"] / jobs

	m["nettransport.rpcs_per_job"] = ph.reg.sum("rpc_client_calls_total") / jobs
	m["nettransport.bytes_per_job"] = ph.reg[`rpc_bytes_total{dir="out"}`] / jobs
	m["nettransport.rpc_errors"] = ph.reg.sum("rpc_client_errors_total")
	for _, fam := range []string{"chord", "rnt", "grid"} {
		m["nettransport.rpcs_per_job."+fam] = ph.reg.sum(`rpc_client_calls_total{method="`+fam+".") / jobs
	}
	m["chord.lookups_per_job"] = ph.reg["chord_lookups_total"] / jobs
	m["chord.lookup_hops_mean"] = ratio(ph.reg["chord_lookup_hops_sum"], ph.reg["chord_lookup_hops_count"])
	m["chord.lookup_failures"] = ph.reg["chord_lookup_failures_total"]
	m["rntree.searches_per_job"] = ph.reg["rntree_searches_total"] / jobs
	m["rntree.visits_mean"] = ratio(ph.reg["rntree_search_visits_sum"], ph.reg["rntree_search_visits_count"])
	m["rntree.escalations_mean"] = ratio(ph.reg["rntree_search_escalations_sum"], ph.reg["rntree_search_escalations_count"])
	m["rntree.no_candidate"] = ph.reg["rntree_search_no_candidate_total"]
	for k, v := range ph.probes {
		m[k] = v
	}

	// A closed loop shows tracing as lost goodput. An open loop delivers
	// its fixed rate either way, so there the cost shows as CPU per job.
	if spec.rate > 0 {
		m["obs.trace_overhead_share"] = (ph.cpuMS/jobs)/(plain.cpuMS/float64(plain.out.exactOnce)) - 1
	} else {
		m["obs.trace_overhead_share"] = 1 - ph.goodput()/plain.goodput()
	}
	res.notes = append(res.notes, fmt.Sprintf("untraced half: %.1f jobs/s, %.3f CPU ms/job; traced half: %.1f jobs/s, %.3f CPU ms/job",
		plain.goodput(), plain.cpuMS/float64(plain.out.exactOnce), ph.goodput(), ph.cpuMS/jobs))
	return res, nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// regView is a flat snapshot of an obs registry.
type regView map[string]float64

func snapshot(o *obs.Obs) regView {
	v := regView{}
	for _, s := range o.Registry().Snapshot() {
		v[s.Name] = s.Value
	}
	return v
}

// minus returns the growth of every sample since the earlier snapshot.
// Counters and histogram sums and counts subtract meaningfully, which
// is all this program reads; gauges and quantile estimates do not.
func (v regView) minus(earlier regView) regView {
	out := make(regView, len(v))
	for name, val := range v {
		out[name] = val - earlier[name]
	}
	return out
}

// sum adds every sample whose name starts with prefix, which is how a
// labelled counter family (or one label-value prefix of it) is totalled.
func (v regView) sum(prefix string) float64 {
	t := 0.0
	for name, val := range v {
		if strings.HasPrefix(name, prefix) {
			t += val
		}
	}
	return t
}
