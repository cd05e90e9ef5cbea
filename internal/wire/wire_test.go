package wire

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/can"
	"repro/internal/chord"
	"repro/internal/flow"
	"repro/internal/grid"
	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/pubsub"
	"repro/internal/replica"
	"repro/internal/resource"
	"repro/internal/rntree"
	"repro/internal/transport"
	"repro/internal/trust"
)

func TestAllMessagesRoundTripZeroValues(t *testing.T) {
	for _, msg := range Messages() {
		got, err := RoundTrip(msg)
		if err != nil {
			t.Errorf("%T: %v", msg, err)
			continue
		}
		if reflect.TypeOf(got) != reflect.TypeOf(msg) {
			t.Errorf("%T decoded as %T", msg, got)
		}
	}
}

func TestPopulatedMessagesRoundTrip(t *testing.T) {
	ref := chord.Ref{ID: ids.HashString("n"), Addr: "host:1"}
	cons := resource.Unconstrained.Require(resource.CPU, 2).RequireOS("linux")
	cases := []any{
		chord.StepResp{Done: true, Owner: ref, Next: ref},
		chord.StateResp{Self: ref, Pred: ref, Succs: []chord.Ref{ref, ref}},
		rntree.SearchReq{Queries: []rntree.Query{{Cons: cons, K: 4, Budget: 64}, {K: 1, Budget: 2}}, Exclude: "x"},
		rntree.SearchResp{Answers: []rntree.Answer{{Cands: []rntree.Candidate{{Ref: ref, Load: 3}}, Visits: 5, RPCs: 4}, {Visits: 1}}, Parent: ref},
		rntree.UpdateReq{Child: ref, Sum: rntree.Summary{
			MaxCaps: resource.Vector{1, 2, 3}, MinLoad: 1, Nodes: 9, OSes: []string{"linux"},
		}},
		can.GossipReq{
			From: can.Info{
				Ref:   can.Ref{ID: ids.HashString("c"), Addr: "c:1"},
				Zones: []can.Zone{can.UnitZone()},
				Caps:  resource.Vector{1, 2, 3},
				OS:    "linux",
				Load:  7,
			},
			Digest: []can.Brief{{Ref: can.Ref{Addr: "d:1"}, Zones: []can.Zone{can.UnitZone()}}},
		},
		can.MatchReq{Cons: cons, Exclude: []transport.Addr{"a", "b"}, TTL: 3, Push: true},
		grid.HeartbeatReq{Run: "r:1", Jobs: []ids.ID{ids.HashString("a"), ids.HashString("b")}},
		grid.HeartbeatReq{
			Run:  "r:1",
			Jobs: []ids.ID{ids.HashString("a")},
			Ckpts: []grid.Checkpoint{{
				JobID: ids.HashString("a"), Attempt: 1, Run: "r:1",
				Done: 3e9, Data: []byte{1, 2, 3}, At: 9e9,
			}},
		},
		grid.AssignReq{
			Prof:  grid.Profile{ID: ids.HashString("job"), Client: "c:1", JobSpec: grid.JobSpec{Work: 100}},
			Owner: "o:1",
			Ckpt:  grid.Checkpoint{JobID: ids.HashString("job"), Run: "r:3", Done: 42e9},
			Reps:  []transport.Addr{"s:1", "s:2"},
		},
		grid.AdoptReq{
			Prof: grid.Profile{ID: ids.HashString("job"), Attempt: 2},
			Run:  "r:4",
			Ckpt: grid.Checkpoint{JobID: ids.HashString("job"), Attempt: 2, Run: "r:4", Done: 5e9},
		},
		grid.CheckpointReq{
			Run: "r:5",
			Ckpt: grid.Checkpoint{
				JobID: ids.HashString("big"), Run: "r:5",
				Done: 7e9, Data: make([]byte, 8192), At: 11e9,
			},
		},
		grid.ResultReq{Res: grid.Result{JobID: ids.HashString("j"), RunNode: "r:2", OutputKB: 3}},
		grid.CompleteReq{
			JobID:  ids.HashString("j"),
			Run:    "r:2",
			Digest: grid.ResultDigest("c:1", 3, 7, ""),
			Res:    grid.Result{JobID: ids.HashString("j"), RunNode: "r:2", OutputKB: 7, Digest: grid.ResultDigest("c:1", 3, 7, "")},
		},
		// Trace-context propagation: every job-scoped message carries a
		// TC; these must survive the wire byte-for-byte or cross-node
		// trace reconstruction silently loses hops.
		grid.InjectReq{
			Client: "c:1", Seq: 3, Attempt: 1, Cons: cons, Work: 50, OutputKB: 2,
			TC: obs.TC{ID: grid.TraceID("c:1", 3), Hop: 1},
		},
		grid.AssignReq{
			Prof:  grid.Profile{ID: ids.HashString("tjob"), Client: "c:1", JobSpec: grid.JobSpec{Work: 100}},
			Owner: "o:1",
			TC:    obs.TC{ID: grid.TraceID("c:1", 4), Hop: 7},
		},
		grid.ResultReq{
			Res: grid.Result{JobID: ids.HashString("tj"), RunNode: "r:2", OutputKB: 3},
			TC:  obs.TC{ID: grid.TraceID("c:1", 5), Hop: 12},
		},
		grid.StatusReq{JobID: ids.HashString("tj"), TC: obs.TC{ID: grid.TraceID("c:1", 6), Hop: 2}},
		// Batched injection (DESIGN.md §11): per-item trace contexts and
		// positional results, including the backpressure retry-after hint.
		grid.InjectBatchReq{Items: []grid.InjectReq{
			{Client: "c:1", Seq: 7, Cons: cons, Work: 50, TC: obs.TC{ID: grid.TraceID("c:1", 7), Hop: 1}},
			{Client: "c:1", Seq: 8, Work: 60},
		}},
		grid.InjectBatchResp{Results: []grid.InjectResult{
			{JobID: ids.HashString("bj"), Owner: "o:1", Hops: 2, Reps: []transport.Addr{"s:1"}},
			{RetryAfterMS: 750},
			{Err: "route job deadbeef: no live owner"},
		}},
		grid.OwnBatchReq{Items: []grid.OwnReq{
			{Prof: grid.Profile{ID: ids.HashString("bj"), Client: "c:1", JobSpec: grid.JobSpec{Cons: cons, Work: 50}}, TC: obs.TC{ID: grid.TraceID("c:1", 7), Hop: 2}},
		}},
		grid.OwnBatchResp{Results: []grid.OwnResult{
			{Reps: []transport.Addr{"s:1", "s:2"}},
			{RetryAfterMS: 500},
		}},
		grid.InjectResp{JobID: ids.HashString("bj"), Owner: "o:1", RetryAfterMS: 1250},
		grid.StatsResp{Stats: grid.NodeStats{
			Addr: "n:1", Now: 30e9, QueueLen: 2, Owned: 3, Pending: 1, Completed: 9, Executed: 70e9,
			Samples: []obs.Sample{{Name: "grid_queue_depth", Value: 2}, {Name: "grid_events_total{kind=\"started\"}", Value: 9}},
		}},
		grid.TraceReq{Trace: grid.TraceID("c:1", 3)},
		grid.TraceResp{
			Events: []obs.TraceEvent{
				{Trace: grid.TraceID("c:1", 3), Hop: 1, At: 1e9, Node: "c:1", Stage: "submitted", Note: "work=10s"},
				{Trace: grid.TraceID("c:1", 3), Hop: 2, At: 2e9, Node: "o:1", Stage: "owned", Peer: "c:1"},
			},
			Peers: []transport.Addr{"o:1", "r:2"},
		},
		grid.ProbeJobReq{Nonce: "r:9/4", Work: 5e9},
		grid.ProbeJobResp{Digest: grid.ProbeDigest("r:9/4")},
		grid.TrustResp{Entries: []trust.Entry{
			{Node: "r:1", Score: 0.85, Agreed: 7},
			{Node: "r:2", Score: 0.1, Disagreed: 2, ProbesBad: 1, Blacklisted: true},
		}},
		// Replication protocol (DESIGN.md §10).
		replica.PutReq{From: "o:1", Recs: []replica.Record{
			{Key: ids.HashString("rj"), Epoch: 2, Version: 5, Owner: "o:1", Reps: []transport.Addr{"s:1", "s:2"}, Data: []byte{9, 8, 7}},
			{Key: ids.HashString("rk"), Epoch: 1, Version: 3, Owner: "o:1", Deleted: true},
		}},
		replica.PutResp{Newer: []replica.Record{
			{Key: ids.HashString("rj"), Epoch: 3, Version: 0, Owner: "o:2", Data: []byte{1}},
		}},
		replica.SyncReq{From: "o:1", Metas: []replica.Meta{
			{Key: ids.HashString("rj"), Epoch: 2, Version: 5, Owner: "o:1"},
			{Key: ids.HashString("rk"), Epoch: 1, Version: 3, Owner: "o:1", Deleted: true},
		}},
		replica.SyncResp{
			Want:  []ids.ID{ids.HashString("rj")},
			Newer: []replica.Record{{Key: ids.HashString("rk"), Epoch: 4, Version: 1, Owner: "o:3"}},
		},
		replica.ProbeReq{From: "s:1", Keys: []ids.ID{ids.HashString("rj"), ids.HashString("rk")}},
		replica.ProbeResp{Owned: []replica.Meta{
			{Key: ids.HashString("rj"), Epoch: 2, Version: 5, Owner: "o:1"},
		}, Since: 42 * time.Second, Has: []ids.ID{ids.HashString("rj"), ids.HashString("rk")}},
		grid.ReplicasReq{JobID: ids.HashString("rj")},
		grid.ReplicasResp{Status: replica.Status{
			Known: true, Owner: "o:1", Epoch: 2, Version: 5,
			Peers: []replica.PeerStatus{
				{Addr: "s:1", Epoch: 2, Version: 5, Acked: true},
				{Addr: "s:2", Epoch: 2, Version: 4},
			},
		}},
		grid.HealthReq{},
		grid.HealthResp{Node: "o:1", Peers: []transport.PeerHealth{
			{Peer: "s:1", State: "open", ConsecFails: 5, Failures: 9, Successes: 3, Opens: 1, RetryIn: 2 * time.Second},
			{Peer: "s:2", State: "closed", Successes: 40},
		}},
		// Pub/sub notification overlay (DESIGN.md §13).
		pubsub.SubscribeReq{Topic: grid.NotifyTopic("c:1", 3), Sub: "c:1"},
		pubsub.SubscribeResp{Epoch: 2},
		pubsub.UnsubscribeReq{Topic: grid.NotifyTopic("c:1", 3), Sub: "c:1"},
		pubsub.PublishReq{
			Topic: grid.NotifyTopic("c:1", 3), From: "o:1",
			Payloads: [][]byte{
				grid.EncodeJobUpdate(grid.JobUpdate{
					JobID: grid.JobGUID("c:1", 3, 0), Kind: "owned", Node: "o:1", From: "o:1", At: 2e9,
				}),
				grid.EncodeJobUpdate(grid.JobUpdate{
					JobID: grid.JobGUID("c:1", 3, 1), Attempt: 1, Kind: "checkpointed",
					Node: "r:2", From: "o:1", At: 9e9, Progress: 4e9,
				}),
			},
		},
		pubsub.PublishResp{Seq: 17},
		pubsub.NotifyReq{
			Topic: grid.NotifyTopic("c:1", 3), Epoch: 1, From: "o:1",
			Events: []pubsub.Event{
				{Seq: 4, Payload: []byte{1, 2, 3}},
				{Seq: 5, Payload: []byte{4}},
			},
		},
		pubsub.NotifyResp{AckUpTo: 5},
		pubsub.AckReq{Topic: grid.NotifyTopic("c:1", 3), Sub: "c:1", Epoch: 1, UpTo: 5},
		pubsub.ResolveReq{Topic: grid.NotifyTopic("c:1", 3)},
		pubsub.ResolveResp{Addr: "rdv:1"},
		// Workflow data passing (DESIGN.md §15): the stage-output
		// envelope — inherited input bytes, the workflow checkpoint
		// bias, and the carried output payload all ride the existing
		// inject/assign/result messages, so populated instances must
		// survive gob's delta encoding byte-for-byte.
		grid.InjectReq{
			Client: "c:1", Seq: 9, Cons: cons, Work: 50, OutputKB: 1,
			Input: []byte{0xca, 0xfe, 1, 2}, CkptBias: 2.5, CarryOutput: true,
			TC: obs.TC{ID: grid.TraceID("c:1", 9), Hop: 1},
		},
		grid.AssignReq{
			Prof: grid.Profile{
				ID: ids.HashString("fjob"), Client: "c:1", Seq: 9,
				JobSpec: grid.JobSpec{Work: 50, Input: []byte{0xca, 0xfe}, CkptBias: 2.5, CarryOutput: true},
			},
			Owner: "o:1",
			Ckpt:  grid.Checkpoint{JobID: ids.HashString("fjob"), Run: "r:2", Done: 2e9, Data: []byte{3, 4}},
		},
		grid.ResultReq{Res: grid.Result{
			JobID: ids.HashString("fjob"), RunNode: "r:2", OutputKB: 1,
			Data: grid.StageOutput(grid.Profile{Client: "c:1", Seq: 9, JobSpec: grid.JobSpec{OutputKB: 1}}),
		}},
		// Flow status updates ride pubsub payloads, like grid.JobUpdate.
		pubsub.PublishReq{
			Topic: flow.FlowTopic("c:1", "render"), From: "c:1",
			Payloads: [][]byte{flow.EncodeUpdate(flow.Update{
				Flow: "render", Stage: "merge", Kind: "delivered",
				JobID: grid.JobGUID("c:1", 4, 1), Attempt: 1, At: 30e9,
			})},
		},
	}
	for _, msg := range cases {
		got, err := RoundTrip(msg)
		if err != nil {
			t.Errorf("%T: %v", msg, err)
			continue
		}
		if !reflect.DeepEqual(got, msg) {
			t.Errorf("%T round trip mismatch:\n got %+v\nwant %+v", msg, got, msg)
		}
	}
}
