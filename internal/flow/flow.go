// Package flow is the workflow-DAG engine over the grid layer: named
// stages with fan-in/fan-out dependency edges, validated upfront
// (topological sort with duplicate/self-dependency/cycle/missing-edge
// detection at parse time), scheduled through the client's batched
// submission path, and recovery-transparent — a stage's owner death,
// handoff, or monitor resubmission is absorbed by the same machinery
// that protects independent jobs, so the DAG never wedges on a fault.
//
// Data passes between stages: a stage with dependents derives an
// output payload (grid.StageOutput, attached to its delivered Result),
// and the engine ships the concatenated outputs of a stage's
// dependencies as its Input. The run node seeds its resumable state
// from those bytes, so the inherited data rides the ordinary
// grid.checkpoint transfer path through every recovery.
//
// The checkpoint policy is workflow-aware (Ni & Harwood): stages whose
// loss would re-execute much downstream work — critical-path and
// high-fan-out stages — carry a CkptBias that tightens the run node's
// adaptive Young's-rule interval by sqrt(bias).
package flow

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/grid"
)

// Stage is one node of the workflow DAG: a job template plus the names
// of the stages whose delivered results gate (and feed) it.
type Stage struct {
	Name  string
	Spec  grid.JobSpec
	After []string
}

// Graph is a declarative workflow: a named set of stages.
type Graph struct {
	Name   string
	Stages []Stage
}

// Validation errors. All are detected upfront by Validate, before
// anything is submitted.
var (
	ErrDuplicateStage = errors.New("flow: duplicate stage name")
	ErrUnknownDep     = errors.New("flow: dependency on unknown stage")
	ErrSelfDep        = errors.New("flow: stage depends on itself")
	ErrCycle          = errors.New("flow: dependency cycle")
	// ErrStalled is returned by Run when the deadline passes with
	// stages still outstanding.
	ErrStalled = errors.New("flow: deadline passed")
)

// MaxCkptBias caps the computed workflow bias: beyond it the adaptive
// interval is already pinned to its floor for any sane configuration,
// and an unbounded ratio would let one long tail stage dominate.
const MaxCkptBias = 16.0

// Plan is a validated, scheduled view of a Graph.
type Plan struct {
	Graph Graph
	// Order is a deterministic topological order (ties broken by stage
	// name), the engine's submission scan order.
	Order []string
	// Deps and Dependents are the edge sets, sorted by name. Deps also
	// fixes the input-bundle concatenation order.
	Deps       map[string][]string
	Dependents map[string][]string
	// Bias is the per-stage workflow checkpoint bias: 1 + the ratio of
	// transitive downstream work to the stage's own work, capped at
	// MaxCkptBias. Sink stages get 1 (unbiased); an explicit
	// Spec.CkptBias wins over the computed value.
	Bias map[string]float64
	// CriticalPath names the stages on the longest work-weighted
	// dependency path, first to last.
	CriticalPath []string
}

// stageByName indexes stages and rejects duplicates.
func stageByName(g Graph) (map[string]*Stage, error) {
	byName := make(map[string]*Stage, len(g.Stages))
	for i := range g.Stages {
		s := &g.Stages[i]
		if s.Name == "" {
			return nil, fmt.Errorf("flow: stage %d has no name", i)
		}
		if _, dup := byName[s.Name]; dup {
			return nil, fmt.Errorf("%w: %q", ErrDuplicateStage, s.Name)
		}
		byName[s.Name] = s
	}
	return byName, nil
}

// Validate checks the graph upfront and returns its execution plan:
// topological order, edge sets, per-stage checkpoint bias, and the
// critical path. Every structural defect — duplicate names, edges to
// unknown stages, self-dependencies, cycles of any length — is
// reported here, before a single job is submitted.
func (g Graph) Validate() (*Plan, error) {
	byName, err := stageByName(g)
	if err != nil {
		return nil, err
	}
	deps := make(map[string][]string, len(g.Stages))
	dependents := make(map[string][]string, len(g.Stages))
	for _, s := range g.Stages {
		seen := make(map[string]bool, len(s.After))
		for _, d := range s.After {
			if d == s.Name {
				return nil, fmt.Errorf("%w: %q", ErrSelfDep, s.Name)
			}
			if _, ok := byName[d]; !ok {
				return nil, fmt.Errorf("%w: stage %q after %q", ErrUnknownDep, s.Name, d)
			}
			if seen[d] {
				continue // a repeated edge is harmless; keep one
			}
			seen[d] = true
			deps[s.Name] = append(deps[s.Name], d)
			dependents[d] = append(dependents[d], s.Name)
		}
	}
	for _, edges := range deps {
		sort.Strings(edges)
	}
	for _, edges := range dependents {
		sort.Strings(edges)
	}

	// Kahn's algorithm with a sorted ready set: the order is a pure
	// function of the graph, independent of map iteration.
	indeg := make(map[string]int, len(g.Stages))
	for _, s := range g.Stages {
		indeg[s.Name] = len(deps[s.Name])
	}
	var ready []string
	for _, s := range g.Stages {
		if indeg[s.Name] == 0 {
			ready = append(ready, s.Name)
		}
	}
	sort.Strings(ready)
	order := make([]string, 0, len(g.Stages))
	for len(ready) > 0 {
		name := ready[0]
		ready = ready[1:]
		order = append(order, name)
		changed := false
		for _, d := range dependents[name] {
			indeg[d]--
			if indeg[d] == 0 {
				ready = append(ready, d)
				changed = true
			}
		}
		if changed {
			sort.Strings(ready)
		}
	}
	if len(order) < len(g.Stages) {
		var stuck []string
		for name, n := range indeg {
			if n > 0 {
				stuck = append(stuck, name)
			}
		}
		sort.Strings(stuck)
		return nil, fmt.Errorf("%w through %v", ErrCycle, stuck)
	}

	p := &Plan{
		Graph:      g,
		Order:      order,
		Deps:       deps,
		Dependents: dependents,
		Bias:       make(map[string]float64, len(g.Stages)),
	}
	p.computeBias(byName)
	p.computeCriticalPath(byName)
	return p, nil
}

// computeBias fills Plan.Bias: 1 + downstream/own work, where
// downstream is the summed Work of the stage's transitive dependents —
// exactly what a lost snapshot would delay. Fan-out is covered for
// free: many dependents means a large downstream sum.
func (p *Plan) computeBias(byName map[string]*Stage) {
	// Transitive descendant sets, built in reverse topological order so
	// each stage's set is final before its dependencies read it.
	desc := make(map[string]map[string]bool, len(p.Order))
	for i := len(p.Order) - 1; i >= 0; i-- {
		name := p.Order[i]
		set := make(map[string]bool)
		for _, d := range p.Dependents[name] {
			set[d] = true
			for dd := range desc[d] {
				set[dd] = true
			}
		}
		desc[name] = set
	}
	for _, name := range p.Order {
		if explicit := byName[name].Spec.CkptBias; explicit > 0 {
			p.Bias[name] = explicit
			continue
		}
		var down time.Duration
		for d := range desc[name] {
			down += byName[d].Spec.Work
		}
		if down <= 0 {
			p.Bias[name] = 1
			continue
		}
		own := byName[name].Spec.Work
		if own <= 0 {
			own = time.Second
		}
		bias := 1 + float64(down)/float64(own)
		if bias > MaxCkptBias {
			bias = MaxCkptBias
		}
		p.Bias[name] = bias
	}
}

// computeCriticalPath fills Plan.CriticalPath with the longest
// work-weighted path, ties broken by stage name for determinism.
func (p *Plan) computeCriticalPath(byName map[string]*Stage) {
	// cp[s] = s.Work + max over dependents cp[d]; next[s] = that argmax.
	cp := make(map[string]time.Duration, len(p.Order))
	next := make(map[string]string, len(p.Order))
	for i := len(p.Order) - 1; i >= 0; i-- {
		name := p.Order[i]
		var best time.Duration
		bestName := ""
		for _, d := range p.Dependents[name] {
			if cp[d] > best || (cp[d] == best && (bestName == "" || d < bestName)) {
				best, bestName = cp[d], d
			}
		}
		cp[name] = byName[name].Spec.Work + best
		next[name] = bestName
	}
	start := ""
	for _, name := range p.Order {
		if len(p.Deps[name]) > 0 {
			continue // critical path starts at a root
		}
		if start == "" || cp[name] > cp[start] || (cp[name] == cp[start] && name < start) {
			start = name
		}
	}
	for at := start; at != ""; at = next[at] {
		p.CriticalPath = append(p.CriticalPath, at)
	}
}

// CriticalWork returns the summed Work along the critical path.
func (p *Plan) CriticalWork() time.Duration {
	byName := make(map[string]*Stage, len(p.Graph.Stages))
	for i := range p.Graph.Stages {
		byName[p.Graph.Stages[i].Name] = &p.Graph.Stages[i]
	}
	var sum time.Duration
	for _, name := range p.CriticalPath {
		sum += byName[name].Spec.Work
	}
	return sum
}
