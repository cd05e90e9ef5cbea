package flow

import (
	"fmt"
	"time"

	"repro/internal/grid"
	"repro/internal/ids"
	"repro/internal/transport"
)

// Publisher is where the engine pushes flow-status transitions; a
// *pubsub.Broker satisfies it. Nil disables publishing.
type Publisher interface {
	Publish(topic ids.ID, payload []byte)
}

// Options tunes one workflow run.
type Options struct {
	// Deadline is the absolute instant (on rt's clock) past which the
	// run aborts with ErrStalled. Zero means no deadline.
	Deadline time.Duration
	// Notify, when set, receives an Update on every stage submission
	// and delivery, published to FlowTopic(client, graph name).
	Notify Publisher
	// OnStage, when set, is called as each stage delivers — in plan
	// order within a harvest round, so the callback sequence is
	// deterministic.
	OnStage func(StageResult)
}

// StageResult records one stage's completion.
type StageResult struct {
	Name     string
	JobID    ids.ID // the delivering attempt's GUID
	Attempt  int
	Seq      int           // client-local sequence number (stable across resubmission)
	Started  time.Duration // submit instant
	Finished time.Duration // delivery instant
	Output   []byte        // carried output bytes (nil for sink stages)
}

// Run validates the graph and executes it to completion: ready stages
// are submitted together through the client's batched injection path,
// completions are harvested by client-local sequence number (stable
// across monitor resubmissions), and each stage's Input is the bundle
// of its dependencies' delivered outputs. It must run in a client
// activity on the node's host, like Submit.
func Run(rt transport.Runtime, client *grid.Node, g Graph, opt Options) (map[string]StageResult, error) {
	plan, err := g.Validate()
	if err != nil {
		return nil, err
	}
	return RunPlan(rt, client, plan, opt)
}

// inflightStage tracks one submitted, not-yet-delivered stage.
type inflightStage struct {
	seq     int // client-local sequence number
	started time.Duration
}

// RunPlan executes an already-validated plan; see Run.
func RunPlan(rt transport.Runtime, client *grid.Node, plan *Plan, opt Options) (map[string]StageResult, error) {
	byName := make(map[string]*Stage, len(plan.Graph.Stages))
	for i := range plan.Graph.Stages {
		byName[plan.Graph.Stages[i].Name] = &plan.Graph.Stages[i]
	}
	topic := FlowTopic(client.Addr(), plan.Graph.Name)
	publish := func(kind, stage string, jobID ids.ID, attempt int) {
		if opt.Notify == nil {
			return
		}
		opt.Notify.Publish(topic, EncodeUpdate(Update{
			Flow: plan.Graph.Name, Stage: stage, Kind: kind,
			JobID: jobID, Attempt: attempt, At: rt.Now(),
		}))
	}

	results := make(map[string]StageResult, len(plan.Order))
	inflight := make(map[string]inflightStage, len(plan.Order))
	var seen uint64 // result events already scanned for (AwaitResultEvent)

	for len(results) < len(plan.Order) {
		// Submit every stage whose dependencies have all delivered, in
		// one batch. Input and policy hints are stamped here: the bundle
		// of dependency outputs (in sorted dependency-name order), the
		// plan's checkpoint bias, and CarryOutput for stages that feed
		// someone downstream.
		var names []string
		var specs []grid.JobSpec
		for _, name := range plan.Order {
			if _, done := results[name]; done {
				continue
			}
			if _, running := inflight[name]; running {
				continue
			}
			ready := true
			for _, d := range plan.Deps[name] {
				if _, ok := results[d]; !ok {
					ready = false
					break
				}
			}
			if !ready {
				continue
			}
			spec := byName[name].Spec
			spec.Input = bundleInputs(plan.Deps[name], results)
			if spec.CkptBias == 0 {
				spec.CkptBias = plan.Bias[name]
			}
			if len(plan.Dependents[name]) > 0 {
				spec.CarryOutput = true
			}
			names = append(names, name)
			specs = append(specs, spec)
		}
		if len(specs) > 0 {
			at := rt.Now()
			// The inject error is informational: every job is registered
			// for monitoring before injection, so failed injects are
			// resubmitted by the client monitor, not by us.
			jobIDs, _ := client.SubmitAll(rt, specs)
			for i, name := range names {
				seq, ok := client.SeqFor(jobIDs[i])
				if !ok {
					return results, fmt.Errorf("flow: stage %q vanished after submit", name)
				}
				inflight[name] = inflightStage{seq: seq, started: at}
				publish("submitted", name, jobIDs[i], 0)
			}
		}

		// Harvest deliveries by sequence number, in plan order so the
		// publish/callback sequence is deterministic.
		harvested := 0
		for _, name := range plan.Order {
			fs, running := inflight[name]
			if !running {
				continue
			}
			st, ok := client.StatusBySeq(fs.seq)
			if !ok || !st.Done {
				continue
			}
			sr := StageResult{
				Name: name, JobID: st.JobID, Attempt: st.Attempt, Seq: fs.seq,
				Started: fs.started, Finished: st.Finished, Output: st.Res.Data,
			}
			results[name] = sr
			delete(inflight, name)
			harvested++
			publish("delivered", name, st.JobID, st.Attempt)
			if opt.OnStage != nil {
				opt.OnStage(sr)
			}
		}
		if len(results) == len(plan.Order) {
			return results, nil
		}
		if opt.Deadline > 0 && rt.Now() >= opt.Deadline {
			return results, fmt.Errorf("%w: %d/%d stages done", ErrStalled, len(results), len(plan.Order))
		}
		if harvested > 0 {
			// A delivery may have unblocked dependents: go straight back
			// to the submit scan. Waiting here would park on an event that
			// can never arrive when nothing is left in flight — on the
			// live transport that is a stall until the deadline.
			continue
		}
		// Wait for the next result or pushed lineage transition; with a
		// deadline the wait is capped so the stall check above fires.
		maxWait := transport.Forever
		if opt.Deadline > 0 {
			maxWait = opt.Deadline - rt.Now()
		}
		seen = client.AwaitResultEvent(rt, seen, maxWait)
	}
	return results, nil
}

// bundleInputs concatenates the delivered outputs of a stage's
// dependencies in sorted dependency-name order (the order deps is
// stored in) — a deterministic input payload for the dependent stage.
func bundleInputs(deps []string, results map[string]StageResult) []byte {
	var out []byte
	for _, d := range deps {
		out = append(out, results[d].Output...)
	}
	return out
}
