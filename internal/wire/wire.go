// Package wire registers every protocol message type with encoding/gob
// so the live TCP transport can carry them. The simulator passes Go
// values directly; tests in this package verify that every message
// survives a gob round trip, keeping simulation and live deployments
// honest with each other.
package wire

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync"

	"repro/internal/can"
	"repro/internal/chord"
	"repro/internal/grid"
	"repro/internal/match"
	"repro/internal/pubsub"
	"repro/internal/replica"
	"repro/internal/rntree"
)

var once sync.Once

// RegisterAll registers every RPC message type. Safe to call multiple
// times.
func RegisterAll() {
	once.Do(func() {
		for _, v := range Messages() {
			gob.Register(v)
		}
	})
}

// Messages enumerates one zero value of every wire message type.
func Messages() []any {
	return []any{
		// chord
		chord.StepReq{}, chord.StepResp{}, chord.StateReq{}, chord.StateResp{},
		chord.NotifyReq{}, chord.NotifyResp{}, chord.PingReq{}, chord.PingResp{},
		// rntree
		rntree.UpdateReq{}, rntree.UpdateResp{}, rntree.SearchReq{}, rntree.SearchResp{},
		rntree.ParentReq{}, rntree.ParentResp{}, rntree.WalkReq{}, rntree.WalkResp{},
		// can
		can.StepReq{}, can.StepResp{}, can.JoinReq{}, can.JoinResp{},
		can.GossipReq{}, can.GossipResp{}, can.MatchReq{}, can.MatchResp{},
		can.LoadReq{}, can.LoadResp{},
		// grid
		grid.InjectReq{}, grid.InjectResp{}, grid.InjectBatchReq{}, grid.InjectBatchResp{},
		grid.OwnBatchReq{}, grid.OwnBatchResp{},
		grid.AssignReq{}, grid.AssignResp{}, grid.HeartbeatReq{}, grid.HeartbeatResp{},
		grid.CompleteReq{}, grid.CompleteResp{}, grid.ResultReq{}, grid.ResultResp{},
		grid.RelayReq{}, grid.RelayResp{}, grid.AdoptReq{}, grid.AdoptResp{},
		grid.StatusReq{}, grid.StatusResp{},
		grid.CheckpointReq{}, grid.CheckpointResp{},
		grid.ProbeJobReq{}, grid.ProbeJobResp{}, grid.TrustReq{}, grid.TrustResp{},
		grid.StatsReq{}, grid.StatsResp{}, grid.TraceReq{}, grid.TraceResp{},
		grid.ReplicasReq{}, grid.ReplicasResp{},
		grid.HealthReq{}, grid.HealthResp{},
		// replica
		replica.PutReq{}, replica.PutResp{}, replica.SyncReq{}, replica.SyncResp{},
		replica.ProbeReq{}, replica.ProbeResp{},
		// match
		match.ProbeReq{}, match.ProbeResp{},
		// pubsub
		pubsub.SubscribeReq{}, pubsub.SubscribeResp{},
		pubsub.UnsubscribeReq{}, pubsub.UnsubscribeResp{},
		pubsub.PublishReq{}, pubsub.PublishResp{},
		pubsub.NotifyReq{}, pubsub.NotifyResp{},
		pubsub.AckReq{}, pubsub.AckResp{},
		pubsub.ResolveReq{}, pubsub.ResolveResp{},
	}
}

// RoundTrip gob-encodes and decodes v through an any-typed envelope,
// returning the decoded value — the exact path live RPC payloads take.
func RoundTrip(v any) (any, error) {
	RegisterAll()
	var buf bytes.Buffer
	holder := struct{ V any }{V: v}
	if err := gob.NewEncoder(&buf).Encode(&holder); err != nil {
		return nil, fmt.Errorf("wire: encode %T: %w", v, err)
	}
	var out struct{ V any }
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		return nil, fmt.Errorf("wire: decode %T: %w", v, err)
	}
	return out.V, nil
}
