package wire

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"
	"time"

	"repro/internal/flow"
	"repro/internal/grid"
	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/pubsub"
	"repro/internal/replica"
	"repro/internal/transport"
)

// encode produces the exact byte stream a live RPC payload puts on the
// wire: the message wrapped in an any-typed envelope.
func encode(t testing.TB, v any) []byte {
	t.Helper()
	RegisterAll()
	var buf bytes.Buffer
	holder := struct{ V any }{V: v}
	if err := gob.NewEncoder(&buf).Encode(&holder); err != nil {
		t.Fatalf("encode %T: %v", v, err)
	}
	return buf.Bytes()
}

// FuzzWireDecode feeds arbitrary byte streams through the envelope
// decoder. The corpus seeds one encoding of every registered message
// type, so mutations explore the real protocol surface; the decoder
// must either fail cleanly or yield a value that survives a second
// round trip unchanged.
func FuzzWireDecode(f *testing.F) {
	for _, msg := range Messages() {
		f.Add(encode(f, msg))
	}
	// Seed trace-context-bearing encodings too: zero-value seeds omit
	// the TC fields entirely under gob's delta encoding, so mutations
	// would never reach the trace-propagation surface without these.
	tc := obs.TC{ID: grid.TraceID("fuzz:1", 1), Hop: 3}
	for _, msg := range []any{
		grid.InjectReq{Client: "fuzz:1", Seq: 1, TC: tc},
		grid.OwnBatchReq{Items: []grid.OwnReq{{Prof: grid.Profile{ID: ids.HashString("fz")}, TC: tc}}},
		grid.AssignReq{Owner: "fuzz:1", Reps: []transport.Addr{"fuzz:3"}, TC: tc},
		grid.CompleteReq{JobID: ids.HashString("fz"), Run: "fuzz:2", TC: tc},
		grid.ResultReq{Res: grid.Result{JobID: ids.HashString("fz")}, TC: tc},
		grid.RelayReq{Res: grid.Result{JobID: ids.HashString("fz")}, TC: tc},
		grid.AdoptReq{Prof: grid.Profile{ID: ids.HashString("fz")}, Run: "fuzz:2", TC: tc},
		grid.CheckpointReq{Run: "fuzz:2", Ckpt: grid.Checkpoint{JobID: ids.HashString("fz")}, TC: tc},
		grid.StatusReq{JobID: ids.HashString("fz"), TC: tc},
		grid.TraceReq{Trace: tc.ID},
		grid.TraceResp{
			Events: []obs.TraceEvent{{Trace: tc.ID, Hop: 1, Node: "fuzz:1", Stage: "submitted"}},
			Peers:  []transport.Addr{"fuzz:2"},
		},
		grid.StatsResp{Stats: grid.NodeStats{Addr: "fuzz:1", Samples: []obs.Sample{{Name: "m", Value: 1}}}},
		// Replication messages: seed populated encodings so mutations
		// reach the record/meta surface (zero-value seeds omit every
		// field under gob's delta encoding).
		replica.PutReq{From: "fuzz:1", Recs: []replica.Record{
			{Key: ids.HashString("fz"), Epoch: 1, Version: 2, Owner: "fuzz:1", Reps: []transport.Addr{"fuzz:2"}, Data: []byte{1, 2}},
		}},
		replica.PutResp{Newer: []replica.Record{{Key: ids.HashString("fz"), Epoch: 2, Owner: "fuzz:2", Deleted: true}}},
		replica.SyncReq{From: "fuzz:1", Metas: []replica.Meta{{Key: ids.HashString("fz"), Epoch: 1, Version: 2, Owner: "fuzz:1"}}},
		replica.SyncResp{Want: []ids.ID{ids.HashString("fz")}, Newer: []replica.Record{{Key: ids.HashString("fz"), Epoch: 3, Owner: "fuzz:3"}}},
		replica.ProbeReq{From: "fuzz:2", Keys: []ids.ID{ids.HashString("fz")}},
		replica.ProbeResp{Owned: []replica.Meta{{Key: ids.HashString("fz"), Epoch: 1, Version: 2, Owner: "fuzz:1"}}, Since: 7 * time.Second, Has: []ids.ID{ids.HashString("fz")}},
		grid.ReplicasReq{JobID: ids.HashString("fz")},
		grid.ReplicasResp{Status: replica.Status{Known: true, Owner: "fuzz:1", Epoch: 1, Version: 2,
			Peers: []replica.PeerStatus{{Addr: "fuzz:2", Epoch: 1, Version: 2, Acked: true}}}},
		// Pub/sub messages: populated seeds so mutations reach the
		// event-batch and payload surface.
		pubsub.SubscribeReq{Topic: grid.NotifyTopic("fuzz:1", 1), Sub: "fuzz:1"},
		pubsub.SubscribeResp{Epoch: 3},
		pubsub.UnsubscribeReq{Topic: grid.NotifyTopic("fuzz:1", 1), Sub: "fuzz:1"},
		pubsub.PublishReq{Topic: grid.NotifyTopic("fuzz:1", 1), From: "fuzz:2",
			Payloads: [][]byte{grid.EncodeJobUpdate(grid.JobUpdate{
				JobID: grid.JobGUID("fuzz:1", 1, 0), Kind: "matched", Node: "fuzz:3", From: "fuzz:2", At: 5e9,
			})}},
		pubsub.PublishResp{Seq: 9},
		pubsub.NotifyReq{Topic: grid.NotifyTopic("fuzz:1", 1), Epoch: 2, From: "fuzz:2",
			Events: []pubsub.Event{{Seq: 8, Payload: []byte{1}}, {Seq: 9, Payload: []byte{2, 3}}}},
		pubsub.NotifyResp{AckUpTo: 9},
		pubsub.AckReq{Topic: grid.NotifyTopic("fuzz:1", 1), Sub: "fuzz:1", Epoch: 2, UpTo: 9},
		pubsub.ResolveReq{Topic: grid.NotifyTopic("fuzz:1", 1)},
		pubsub.ResolveResp{Addr: "fuzz:4"},
		// Workflow data passing: populated stage-output envelopes so
		// mutations reach the input/bias/carry fields (omitted entirely
		// from zero-value seeds under gob's delta encoding), plus a
		// flow-status update riding a pubsub payload.
		grid.InjectReq{Client: "fuzz:1", Seq: 2, Input: []byte{0xca, 0xfe}, CkptBias: 2.5, CarryOutput: true, TC: tc},
		grid.AssignReq{Prof: grid.Profile{
			ID: ids.HashString("fw"), Client: "fuzz:1", Seq: 2,
			JobSpec: grid.JobSpec{Input: []byte{0xca, 0xfe}, CkptBias: 2.5, CarryOutput: true},
		}, Owner: "fuzz:2", TC: tc},
		grid.ResultReq{Res: grid.Result{
			JobID: ids.HashString("fw"), RunNode: "fuzz:3",
			Data: grid.StageOutput(grid.Profile{Client: "fuzz:1", Seq: 2, JobSpec: grid.JobSpec{OutputKB: 1}}),
		}, TC: tc},
		pubsub.PublishReq{Topic: flow.FlowTopic("fuzz:1", "soak"), From: "fuzz:1",
			Payloads: [][]byte{flow.EncodeUpdate(flow.Update{
				Flow: "soak", Stage: "sink", Kind: "submitted",
				JobID: grid.JobGUID("fuzz:1", 4, 0), At: 7e9,
			})}},
	} {
		f.Add(encode(f, msg))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		RegisterAll()
		var out struct{ V any }
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&out); err != nil {
			return // malformed input rejected cleanly — fine
		}
		if out.V == nil {
			return
		}
		// Whatever decoded must be stable under re-encoding.
		again, err := RoundTrip(out.V)
		if err != nil {
			t.Fatalf("decoded %T but re-encode failed: %v", out.V, err)
		}
		if reflect.TypeOf(again) != reflect.TypeOf(out.V) {
			t.Fatalf("re-decode changed type: %T -> %T", out.V, again)
		}
	})
}
