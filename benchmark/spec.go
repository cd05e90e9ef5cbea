package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// benchSpec is BENCHMARK.json: the names, units, directions and bounds
// this program reports against. It is read at run time so that the
// file stays the single statement of them.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read the benchmark's contract: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &s, nil
}

func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

func (s *benchSpec) workloadNames() []string {
	var out []string
	for _, w := range s.Workloads {
		out = append(out, w.Name)
	}
	return out
}

// project builds the result line: exactly the end-to-end metrics of an
// untraced run, or exactly the per-layer metrics of a traced one. A
// per-layer metric that does not apply to the workload (a simulator
// counter on a live run) reads 0. A missing end-to-end metric, or a
// metric the run produced that BENCHMARK.json does not name, is an
// error: the two have drifted apart.
func (s *benchSpec) project(res *result, traced bool) (resultLine, error) {
	want := s.EndToEnd
	if traced {
		want = s.PerLayer
	}
	out := resultLine{Correct: res.correct, Attempted: res.attempted, Failed: res.failed,
		Metrics: make(map[string]metricValue, len(want))}
	known := make(map[string]bool, len(want))
	for _, sm := range want {
		known[sm.Name] = true
		v, ok := res.metrics[sm.Name]
		if !ok && !traced {
			return out, fmt.Errorf("end-to-end metric %s was not measured", sm.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return out, fmt.Errorf("metric %s is %v", sm.Name, v)
		}
		out.Metrics[sm.Name] = metricValue{Value: v, Unit: sm.Unit}
	}
	var stray []string
	for name := range res.metrics {
		if !known[name] {
			stray = append(stray, name)
		}
	}
	if len(stray) > 0 {
		sort.Strings(stray)
		return out, fmt.Errorf("metrics not named in BENCHMARK.json: %v", stray)
	}
	return out, nil
}
