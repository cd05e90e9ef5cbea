package grid_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/grid"
	"repro/internal/obs"
)

// Trace neutrality: attaching the observability layer must not perturb
// the protocol. The seeded soaks are the strongest probe available —
// their event traces are byte-identical across replays, so any obs
// feedback into scheduling, timing, or recovery decisions would show
// up as a diverging trace.

// obsSoakCfg is cfg with a fresh obs sink attached. All nodes share
// one Obs (one registry/tracer/hub) — the multi-node worst case for
// instrument contention, and also what asserts that shared GaugeFunc
// re-registration stays harmless.
func obsSoakCfg(cfg grid.Config) (grid.Config, *obs.Obs) {
	o := obs.New()
	cfg.Obs = o
	return cfg, o
}

// TestSoakObsTraceNeutral replays seeded fault schedules with obs off
// and obs on; the event traces must match byte for byte, and the obs
// side must actually have observed the run (so the test cannot pass
// vacuously with instrumentation compiled out).
func TestSoakObsTraceNeutral(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		assertObsNeutral(t, seed, soakCfg())
	}
}

// TestSoakObsTraceNeutralCheckpointed extends neutrality to the
// checkpoint subsystem (snapshot instants and resume offsets are in
// the trace lines via Progress).
func TestSoakObsTraceNeutralCheckpointed(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		assertObsNeutral(t, seed, soakCkptCfg())
	}
}

// TestSoakObsReplayDeterministic: two obs-enabled runs of the same
// seed must also replay byte-identically (the obs layer itself holds
// no wall-clock or global state that could leak between runs).
func TestSoakObsReplayDeterministic(t *testing.T) {
	seed := int64(2)
	cfgA, _ := obsSoakCfg(soakCfg())
	cfgB, _ := obsSoakCfg(soakCfg())
	a, _ := runSoak(t, seed, cfgA)
	b, _ := runSoak(t, seed, cfgB)
	sameTrace(t, "seed 2 obs replay", a, b)
}

// assertObsNeutral runs one seed with obs off and on: the traces must
// match and the obs side must have seen the run.
func assertObsNeutral(t *testing.T, seed int64, cfg grid.Config) {
	t.Helper()
	bare, _ := runSoak(t, seed, cfg)
	cfg, o := obsSoakCfg(cfg)
	instrumented, _ := runSoak(t, seed, cfg)
	sameTrace(t, fmt.Sprintf("seed %d obs off/on", seed), bare, instrumented)
	assertObsPopulated(t, seed, o)
}

// assertObsPopulated checks the instrumentation saw the run: lifecycle
// counters advanced and the tracer holds at least one full job trace
// ending in a delivery.
func assertObsPopulated(t *testing.T, seed int64, o *obs.Obs) {
	t.Helper()
	samples := o.Registry().Snapshot()
	byName := map[string]float64{}
	for _, s := range samples {
		byName[s.Name] = s.Value
	}
	for _, name := range []string{
		`grid_events_total{kind="submitted"}`,
		`grid_events_total{kind="started"}`,
		`grid_events_total{kind="result-delivered"}`,
		"grid_heartbeats_sent_total",
	} {
		if byName[name] <= 0 {
			t.Errorf("seed %d: metric %s = %v, want > 0", seed, name, byName[name])
		}
	}
	if byName[`grid_events_total{kind="result-delivered"}`] != float64(soakJobs) {
		t.Errorf("seed %d: delivered counter = %v, want %d", seed,
			byName[`grid_events_total{kind="result-delivered"}`], soakJobs)
	}
	traces := o.GetTracer().Traces()
	if len(traces) == 0 {
		t.Fatalf("seed %d: tracer recorded no traces", seed)
	}
	delivered := 0
	for _, id := range traces {
		evs, _ := o.GetTracer().Get(id)
		sorted := obs.MergeSort(evs)
		for _, ev := range sorted {
			if ev.Stage == "result-delivered" {
				delivered++
				break
			}
		}
		// Hop ordering must be internally consistent after the merge.
		for i := 1; i < len(sorted); i++ {
			if sorted[i].Hop < sorted[i-1].Hop {
				t.Fatalf("seed %d: trace %s hops unsorted after MergeSort", seed, id.Short())
			}
		}
	}
	if delivered != soakJobs {
		t.Errorf("seed %d: %d traces reach result-delivered, want %d", seed, delivered, soakJobs)
	}
	assertStagesMatchEvents(t, seed, o)
	// Every trace must begin at a submission.
	for _, id := range traces {
		evs, _ := o.GetTracer().Get(id)
		first := obs.MergeSort(evs)[0]
		if !strings.HasPrefix(first.Stage, "submitted") {
			t.Errorf("seed %d: trace %s starts at %q, want submitted", seed, id.Short(), first.Stage)
		}
	}
}

// assertStagesMatchEvents checks that the job trace and the event
// stream name the same steps: for every EventKind, the trace holds as
// many stages of that name as grid_events_total counted.
func assertStagesMatchEvents(t *testing.T, seed int64, o *obs.Obs) {
	t.Helper()
	counted := map[string]float64{}
	for _, s := range o.Registry().Snapshot() {
		counted[s.Name] = s.Value
	}
	stages := map[string]int{}
	tr := o.GetTracer()
	for _, id := range tr.Traces() {
		evs, _ := tr.Get(id)
		for _, ev := range evs {
			stages[ev.Stage]++
		}
	}
	// Kinds past the last one print as "EventKind(n)".
	for k := grid.EventKind(0); !strings.HasPrefix(k.String(), "EventKind("); k++ {
		name := k.String()
		if got, want := stages[name], counted[`grid_events_total{kind="`+name+`"}`]; float64(got) != want {
			t.Errorf("seed %d: %d %q trace stages, %v events", seed, got, name, want)
		}
	}
}
