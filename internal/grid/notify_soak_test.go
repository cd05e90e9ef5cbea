package grid_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/grid"
	"repro/internal/ids"
	"repro/internal/match"
	"repro/internal/pubsub"
	"repro/internal/resource"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// These soaks pin the two contracts the notification overlay must
// honour (DESIGN.md §13): losing, delaying, or duplicating
// notifications can never lose or duplicate a job — the silence
// fallback re-engages status polling — and turning the overlay on
// cannot perturb the grid protocol itself: the seeded event trace
// replays byte-identical with pub/sub on and off.

// notifyCluster is a soak cluster with a pub/sub broker on every node.
// Brokers are built and started in BOTH the wired and unwired
// configurations so the simulated process structure is identical at
// build time; only the grid's Config.Notify hookup differs.
type notifyCluster struct {
	*cluster
	brokers []*pubsub.Broker
}

// firstCentral is the central matcher with the random tie-break
// removed: among least-loaded satisfying nodes it picks the lowest
// address. The neutrality soak compares runs whose proc population
// differs (pub/sub handler procs each consume one seed draw from the
// engine's master RNG), so per-proc random streams are differently
// seeded between runs; an rt.Rand()-based tie-break would diverge on
// that artefact without any protocol-visible cause. Match outcomes
// here must be a pure function of grid state.
type firstCentral struct{ reg *match.Registry }

func (m *firstCentral) FindRunNode(rt transport.Runtime, cons resource.Constraints, exclude []transport.Addr) (transport.Addr, grid.MatchStats, error) {
	var best transport.Addr
	bestLoad := -1
	for _, e := range m.reg.Snapshot() { // sorted by address
		skip := !e.Entry.Up()
		for _, x := range exclude {
			if x == e.Addr {
				skip = true
			}
		}
		if skip || !cons.SatisfiedBy(e.Entry.Caps, e.Entry.OS) {
			continue
		}
		if load := e.Entry.Load(); bestLoad < 0 || load < bestLoad {
			best, bestLoad = e.Addr, load
		}
	}
	if bestLoad < 0 {
		return "", grid.MatchStats{}, fmt.Errorf("firstCentral: no satisfying node for %s", cons)
	}
	return best, grid.MatchStats{}, nil
}

func newNotifyCluster(t *testing.T, n int, seed int64, cfg grid.Config, wired bool) *notifyCluster {
	t.Helper()
	nc := &notifyCluster{}
	// Every topic rendezvouses at node 0: these soaks probe delivery
	// semantics under faults, not ring placement (the pubsub package's
	// own tests cover lookup and rendezvous handoff).
	lookup := func(rt transport.Runtime, key ids.ID) (transport.Addr, error) {
		return "n000", nil
	}
	matcher := &firstCentral{}
	nc.cluster = newClusterPrep(t, n, seed, func(int) grid.Config { return cfg }, uniform,
		func(i int, h *simnet.Endpoint, c *grid.Config) grid.Matchmaker {
			b := pubsub.New(h, pubsub.Config{Lookup: lookup})
			nc.brokers = append(nc.brokers, b)
			if wired {
				c.Notify = b
			}
			return matcher
		})
	matcher.reg = nc.reg
	for i, b := range nc.brokers {
		b.SetOnEvent(nc.nodes[i].OnNotification)
		b.Start()
	}
	return nc
}

// notifySoakHarness restarts the broker alongside the grid node, the
// way a real process restart rebuilds both.
type notifySoakHarness struct{ nc *notifyCluster }

func (h notifySoakHarness) Crash(i int) { h.nc.hosts[i].Crash() }
func (h notifySoakHarness) Restart(i int) {
	h.nc.hosts[i].Restart()
	h.nc.nodes[i].Restart()
	h.nc.brokers[i].Reset()
	h.nc.brokers[i].Start()
}

// notifyStats aggregates the push-path counters of one soak run.
type notifyStats struct {
	published  int64 // events handed to brokers by owners
	delivered  int64 // fresh events handed to OnNotification anywhere
	redelivery int64 // redelivered + duplicate + abandoned (loss path)
	notifyRecv int64 // notifications absorbed by the client node
	probes     int64 // status RPCs the client monitor actually sent
	resubmits  int   // EvResubmitted events in the trace
}

func (nc *notifyCluster) gather() notifyStats {
	var s notifyStats
	for _, b := range nc.brokers {
		bs := b.Stats()
		s.published += bs.Published
		s.delivered += bs.Delivered
		s.redelivery += bs.Redelivered + bs.Duplicates + bs.Abandoned
	}
	s.notifyRecv = nc.nodes[soakClient].NotifyRecv
	s.probes = nc.nodes[soakClient].StatusProbes
	s.resubmits = nc.rec.count(grid.EvResubmitted)
	return s
}

// neutralPlan injects faults only on grid methods whose message
// sequence is identical with pub/sub on and off. No crashes or
// partitions (a resubmission's timing depends on whether the monitor
// probed or trusted a push, which is exactly the difference under
// test), and no catch-all rules: a rule matching pubsub.* methods
// would delay or drop messages of the wired run only.
func neutralPlan() faultinject.Plan {
	return faultinject.Plan{
		Nodes:   soakNodes,
		Protect: []int{soakClient},
		Window:  45 * time.Second,
		Rules: []faultinject.Rule{
			{Method: grid.MHeartbeat, DropProb: 0.25},
			{Method: grid.MAssign, DropProb: 0.1, DupProb: 0.1},
		},
	}
}

// runNeutralSoak executes one seeded schedule on a fixed-latency
// network — the only RNG-free latency model, so message timing cannot
// depend on the extra pub/sub traffic — and returns the event trace
// plus the run's push-path counters. A short resubmit patience makes
// the monitor actually reach the probe-or-trust decision for delayed
// jobs; owners stay alive, so probes come back Known and no
// resubmission fires in either run.
func runNeutralSoak(t *testing.T, seed int64, wired bool) ([]string, notifyStats) {
	t.Helper()
	nc := newNotifyCluster(t, soakNodes, seed, soakCfg(), wired)
	defer nc.e.Shutdown()
	nc.net.Latency = simnet.FixedLatency(12 * time.Millisecond)
	plan := neutralPlan()
	trace, _ := soak{c: nc.cluster, harness: notifySoakHarness{nc}, plan: &plan, spec: shortJobs,
		patience: 2 * time.Second, deadline: 10 * time.Minute, tag: fmt.Sprintf(" wired=%v", wired),
	}.run(t, seed)
	return trace, nc.gather()
}

// TestNotifySoakTraceNeutral is the overlay's hard constraint: for the
// same seed, the grid's event trace must be byte-identical — every
// event, timestamp, digest, and attempt number — whether push
// notifications are wired up or not. Notifications may observe the
// protocol; they may never steer it.
func TestNotifySoakTraceNeutral(t *testing.T) {
	var onProbes, offProbes int64
	for seed := int64(1); seed <= seeds(5, 2); seed++ {
		offTrace, off := runNeutralSoak(t, seed, false)
		onTrace, on := runNeutralSoak(t, seed, true)
		sameTrace(t, fmt.Sprintf("seed %d pubsub off/on", seed), offTrace, onTrace)
		// Non-vacuous: the wired run really pushed transitions to the
		// client, the unwired run really sent none.
		if on.published == 0 || on.notifyRecv == 0 {
			t.Fatalf("seed %d: wired run pushed nothing (published=%d notifyRecv=%d)", seed, on.published, on.notifyRecv)
		}
		if off.published != 0 || off.notifyRecv != 0 {
			t.Fatalf("seed %d: unwired run leaked notifications (published=%d notifyRecv=%d)", seed, off.published, off.notifyRecv)
		}
		if on.resubmits != 0 || off.resubmits != 0 {
			t.Fatalf("seed %d: resubmissions fired (on=%d off=%d); the neutrality plan must not reach that path", seed, on.resubmits, off.resubmits)
		}
		onProbes += on.probes
		offProbes += off.probes
	}
	// Push must only ever displace polling, never add to it.
	if onProbes > offProbes {
		t.Fatalf("client sent more status probes with push on (%d) than off (%d)", onProbes, offProbes)
	}
}

// notifyDropPlan is the full recovery soak plan plus heavy loss,
// delay, and duplication on every pub/sub method. The pubsub rules
// come first: rule matching is first-wins and the base plan ends with
// a catch-all delay rule.
func notifyDropPlan() faultinject.Plan {
	p := soakPlan()
	p.Rules = append([]faultinject.Rule{
		{Method: pubsub.MNotify, DropProb: 0.5, DupProb: 0.2, DelayProb: 0.3, DelayMin: 200 * time.Millisecond, DelayMax: 2 * time.Second},
		{Method: pubsub.MPublish, DropProb: 0.3, DupProb: 0.2},
		{Method: pubsub.MSubscribe, DropProb: 0.3},
		{Method: pubsub.MAck, DropProb: 0.3},
	}, p.Rules...)
	return p
}

// runNotifyDropSoak executes one seeded schedule with the overlay
// wired and its traffic heavily faulted, on top of the usual crashes,
// partitions, and grid-method faults. The exactly-once contract must
// survive: notifications are an optimisation, so losing them can only
// cost latency (the silence fallback polls), never correctness. The
// 5 s patience is short enough that jobs held up by the plan's crashes
// and partitions outlive it while their pushes are lost, so the
// silence fallback polls on several seeds, not only on the rare one
// where a job waits 15 s past its work.
func runNotifyDropSoak(t *testing.T, seed int64) ([]string, notifyStats) {
	t.Helper()
	nc := newNotifyCluster(t, soakNodes, seed, soakCfg(), true)
	defer nc.e.Shutdown()
	plan := notifyDropPlan()
	trace, _ := soak{c: nc.cluster, harness: notifySoakHarness{nc}, plan: &plan, spec: shortJobs,
		patience: 5 * time.Second, deadline: 10 * time.Minute}.run(t, seed)
	return trace, nc.gather()
}

// TestNotifySoakDroppedNotifications runs many seeded schedules with
// the notification overlay under heavy fire and requires zero lost and
// zero duplicated jobs in every one, plus evidence (aggregated across
// seeds) that the runs actually exercised both the push path and its
// polling fallback.
func TestNotifySoakDroppedNotifications(t *testing.T) {
	n := seeds(30, 10)
	var agg notifyStats
	for seed := int64(1); seed <= n; seed++ {
		_, s := runNotifyDropSoak(t, seed)
		agg.published += s.published
		agg.redelivery += s.redelivery
		agg.notifyRecv += s.notifyRecv
		agg.probes += s.probes
	}
	if agg.published == 0 || agg.notifyRecv == 0 {
		t.Fatalf("push path never exercised: published=%d notifyRecv=%d", agg.published, agg.notifyRecv)
	}
	if agg.redelivery == 0 {
		t.Fatalf("loss path never exercised: no redeliveries, duplicates, or abandonments in %d seeds", n)
	}
	if agg.probes == 0 {
		t.Fatalf("fallback polling never exercised across %d seeds", n)
	}
}

// TestNotifySoakReplayDeterministic re-runs dropped-notification
// schedules and requires byte-identical event traces: the pub/sub
// overlay, like every other subsystem, must stay inside the sim's
// seeded-replay discipline.
func TestNotifySoakReplayDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		a, _ := runNotifyDropSoak(t, seed)
		b, _ := runNotifyDropSoak(t, seed)
		sameTrace(t, fmt.Sprintf("seed %d replay", seed), a, b)
	}
}

// TestGaveUpPushTriggersResubmit: a gave-up push is the one
// notification that means nobody is driving the job any more, so it
// must not buy the job a fresh patience window the way proof-of-life
// pushes do. With no capable run node the owner exhausts MaxRematch and
// publishes gave-up; the client must probe and resubmit within two
// monitor ticks of receiving it.
func TestGaveUpPushTriggersResubmit(t *testing.T) {
	cfg := grid.Config{MaxRematch: 2}
	nc := newNotifyCluster(t, 4, 31, cfg, true)
	defer nc.e.Shutdown()
	var gaveUpAt time.Duration
	nc.brokers[0].SetOnEvent(func(rt transport.Runtime, topic ids.ID, payload []byte) {
		if u, err := grid.DecodeJobUpdate(payload); err == nil && u.Kind == grid.EvGaveUp.String() && gaveUpAt == 0 {
			gaveUpAt = rt.Now()
		}
		nc.nodes[0].OnNotification(rt, topic, payload)
	})
	// Patience (work + 8 s) runs out just before the owner's two match
	// rounds (MatchRetryEvery apart) end in the give-up.
	nc.nodes[0].StartClientMonitor(8 * time.Second)
	nc.do(0, func(rt transport.Runtime) {
		spec := grid.JobSpec{Work: time.Second, Cons: resource.Unconstrained.Require(resource.CPU, 100)}
		if _, err := nc.nodes[0].Submit(rt, spec); err != nil {
			t.Fatalf("submit: %v", err)
		}
	})
	nc.e.RunFor(40 * time.Second)
	if gaveUpAt == 0 {
		t.Fatal("no gave-up notification reached the client")
	}
	var resubmitAt time.Duration
	for _, ev := range nc.rec.evs {
		if ev.Kind == grid.EvResubmitted {
			resubmitAt = ev.At
			break
		}
	}
	const tick = 2 * 2 * time.Second // client monitor period: 2 * HeartbeatEvery
	if resubmitAt == 0 || resubmitAt-gaveUpAt > 2*tick {
		t.Fatalf("gave-up delivered at %v, resubmitted at %v; want within %v", gaveUpAt, resubmitAt, 2*tick)
	}
}
