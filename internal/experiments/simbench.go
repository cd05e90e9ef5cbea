package experiments

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/workload"
)

// The simbench harness measures the simulator itself: how fast the
// kernel burns through a representative grid workload at each rung of
// a declarative scale ladder (dedis/onet's runfile-driven simulation
// ladders are the exemplar). Its output, BENCH_sim.json, is the
// baseline every later scale refactor must beat or explain — and its
// per-layer attribution names the subsystems such a refactor should
// target first.

// SimBenchConfig is the declarative workload ladder. The zero value is
// unusable; start from DefaultSimBench or ParseRunfile.
type SimBenchConfig struct {
	// Scales are the ladder rungs as fractions of paper scale
	// (1 = 1000 nodes / 5000 jobs).
	Scales []float64
	// Grow keeps doubling past the last rung while the projected rung
	// cost fits WallBudget — "the largest scale that finishes under a
	// wall budget".
	Grow bool
	// WallBudget bounds one rung's wall time. A rung that exceeds it
	// still finishes (runs are never aborted mid-flight, so every rung
	// reported is a complete run) but ends the ladder.
	WallBudget time.Duration
	// Alg is the matchmaking system under test.
	Alg Algorithm
	// Maintenance turns on the periodic overlay loops (stabilization,
	// heartbeats, gossip) — the steady-state load the scale work cares
	// about.
	Maintenance bool
}

// DefaultSimBench is the checked-in ladder: quarter, half, and full
// paper scale under RN-Tree with maintenance on.
func DefaultSimBench() SimBenchConfig {
	return SimBenchConfig{
		Scales:      []float64{0.25, 0.5, 1},
		Grow:        false,
		WallBudget:  5 * time.Minute,
		Alg:         AlgRNTree,
		Maintenance: true,
	}
}

// ParseRunfile reads a declarative simbench runfile: one "key = value"
// per line, '#' comments. Keys: scales (comma-separated finite positive
// floats), grow (bool), budget (positive duration), alg (matchmaker
// name), maintenance (bool). Unset keys keep their DefaultSimBench values.
func ParseRunfile(data string) (SimBenchConfig, error) {
	cfg := DefaultSimBench()
	for ln, line := range strings.Split(data, "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		key, val, ok := strings.Cut(line, "=")
		if !ok {
			return cfg, fmt.Errorf("runfile line %d: want key = value, got %q", ln+1, line)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		var err error
		switch key {
		case "scales":
			cfg.Scales = cfg.Scales[:0]
			for _, f := range strings.Split(val, ",") {
				v, perr := strconv.ParseFloat(strings.TrimSpace(f), 64)
				if perr != nil || !(v > 0) || math.IsInf(v, 1) {
					return cfg, fmt.Errorf("runfile line %d: bad scale %q", ln+1, f)
				}
				cfg.Scales = append(cfg.Scales, v)
			}
		case "grow":
			cfg.Grow, err = strconv.ParseBool(val)
		case "budget":
			cfg.WallBudget, err = time.ParseDuration(val)
			if err == nil && cfg.WallBudget <= 0 {
				err = errors.New("must be positive")
			}
		case "alg":
			cfg.Alg, err = ParseAlgorithm(val)
		case "maintenance":
			cfg.Maintenance, err = strconv.ParseBool(val)
		default:
			return cfg, fmt.Errorf("runfile line %d: unknown key %q", ln+1, key)
		}
		if err != nil {
			return cfg, fmt.Errorf("runfile line %d: %s: %v", ln+1, key, err)
		}
	}
	if len(cfg.Scales) == 0 {
		return cfg, fmt.Errorf("runfile: no scales")
	}
	return cfg, nil
}

// SimBenchLayer is one subsystem's share of the kernel load at a rung.
type SimBenchLayer struct {
	Layer       string  `json:"layer"`
	Scheduled   int64   `json:"scheduled"`
	Fired       int64   `json:"fired"`
	Switches    int64   `json:"switches"`
	WallSeconds float64 `json:"wall_seconds"`
}

// SimBenchRung is one completed ladder rung.
type SimBenchRung struct {
	Scale            float64         `json:"scale"`
	Nodes            int             `json:"nodes"`
	Jobs             int             `json:"jobs"`
	Delivered        int             `json:"delivered"`
	SimSeconds       float64         `json:"sim_seconds"`
	WallSeconds      float64         `json:"wall_seconds"`  // inside the kernel run loops
	TotalSeconds     float64         `json:"total_seconds"` // build + run (the budget basis)
	EventsScheduled  int64           `json:"events_scheduled"`
	EventsFired      int64           `json:"events_fired"`
	Switches         int64           `json:"switches"`
	EventsPerSec     float64         `json:"events_per_sec"`
	WallPerSimSec    float64         `json:"wall_per_sim_second"`
	SwitchesPerEvent float64         `json:"switches_per_event"`
	PeakEventHeap    int             `json:"peak_event_heap"`
	PeakProcs        int             `json:"peak_procs"`
	OverBudget       bool            `json:"over_budget,omitempty"`
	TopLayer         string          `json:"top_layer"`
	Layers           []SimBenchLayer `json:"layers"`
}

// SimBenchResult is the BENCH_sim.json payload.
type SimBenchResult struct {
	Alg               string         `json:"alg"`
	Seed              int64          `json:"seed"`
	Maintenance       bool           `json:"maintenance"`
	WallBudgetSeconds float64        `json:"wall_budget_seconds"`
	Rungs             []SimBenchRung `json:"rungs"`
}

// SimBench runs the ladder and reports per-rung kernel throughput with
// per-layer attribution. Options.Scale is ignored — the ladder's rungs
// set the scale — but Seed and Instrument's report sink apply.
func SimBench(cfg SimBenchConfig, o Options) (*SimBenchResult, *Table) {
	result := &SimBenchResult{
		Alg:               cfg.Alg.String(),
		Seed:              o.Seed,
		Maintenance:       cfg.Maintenance,
		WallBudgetSeconds: cfg.WallBudget.Seconds(),
	}
	tbl := &Table{
		Title: fmt.Sprintf("simbench: kernel throughput ladder (%s, maintenance=%v)", cfg.Alg, cfg.Maintenance),
		Header: []string{"scale", "nodes", "jobs", "delivered", "events", "events/s",
			"wall-s/sim-s", "sw/event", "peak-heap", "peak-procs", "top-layer", "wall"},
	}

	scales := append([]float64(nil), cfg.Scales...)
	for i := 0; i < len(scales); i++ {
		scale := scales[i]
		o.logf("simbench rung %d: scale %g", i+1, scale)
		rung := simBenchRung(cfg, o, scale)
		result.Rungs = append(result.Rungs, rung)
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("%g", scale), fmt.Sprint(rung.Nodes), fmt.Sprint(rung.Jobs),
			fmt.Sprintf("%d/%d", rung.Delivered, rung.Jobs),
			fmt.Sprint(rung.EventsFired), fmt.Sprintf("%.0f", rung.EventsPerSec),
			fmt.Sprintf("%.3f", rung.WallPerSimSec), fmt.Sprintf("%.2f", rung.SwitchesPerEvent),
			fmt.Sprint(rung.PeakEventHeap), fmt.Sprint(rung.PeakProcs),
			rung.TopLayer, fmt.Sprintf("%.1fs", rung.TotalSeconds),
		})
		if rung.OverBudget {
			break
		}
		// Grow mode: double the ladder while the next rung's projected
		// cost (wall time scales a bit superlinearly with population;
		// 3x the last rung is a conservative projection for 2x scale)
		// still fits the budget.
		if cfg.Grow && i == len(scales)-1 &&
			time.Duration(rung.TotalSeconds*3*float64(time.Second)) < cfg.WallBudget {
			scales = append(scales, scale*2)
		}
	}
	if n := len(result.Rungs); n > 0 {
		top := result.Rungs[n-1]
		tbl.Notes = append(tbl.Notes, fmt.Sprintf(
			"largest rung under the %v budget: scale %g (%d nodes) at %.0f events/s; top event producer: %s",
			cfg.WallBudget, top.Scale, top.Nodes, top.EventsPerSec, top.TopLayer))
	}
	return result, tbl
}

// simBenchRung builds, runs, and measures one rung.
func simBenchRung(cfg SimBenchConfig, o Options, scale float64) SimBenchRung {
	wcfg := workload.NewConfig()
	wcfg.Seed = o.Seed + 1
	wcfg = wcfg.Scale(scale)

	// Kernel stats are the point of this experiment, so they are forced
	// on; the caller's report sink still applies.
	ins := &Instrument{Stats: true}
	if o.Instrument != nil {
		ins.OnStats = o.Instrument.OnStats
	}

	t0 := time.Now()
	d := Build(Scenario{
		Alg:         cfg.Alg,
		Workload:    wcfg,
		NetSeed:     o.Seed + 77,
		Maintenance: cfg.Maintenance,
		Instrument:  ins,
	})
	res := d.Run()
	total := time.Since(t0)
	st := d.Engine.Stats()

	rung := SimBenchRung{
		Scale:            scale,
		Nodes:            res.Nodes,
		Jobs:             res.Jobs,
		Delivered:        res.Delivered,
		SimSeconds:       res.SimEnd.Seconds(),
		WallSeconds:      float64(st.WallNS) / 1e9,
		TotalSeconds:     total.Seconds(),
		EventsScheduled:  st.EventsScheduled,
		EventsFired:      st.EventsFired,
		Switches:         st.Switches,
		EventsPerSec:     st.EventsPerSec(),
		WallPerSimSec:    st.WallPerVirtSec(),
		SwitchesPerEvent: st.SwitchesPerEvent(),
		PeakEventHeap:    st.PeakQueue,
		PeakProcs:        st.PeakProcs,
		OverBudget:       total > cfg.WallBudget,
		TopLayer:         st.TopTag(),
	}
	for _, r := range st.RankedTags() {
		rung.Layers = append(rung.Layers, SimBenchLayer{
			Layer:       r.Tag,
			Scheduled:   r.Scheduled,
			Fired:       r.Fired,
			Switches:    r.Switches,
			WallSeconds: float64(r.WallNS) / 1e9,
		})
	}
	return rung
}
