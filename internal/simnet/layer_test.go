package simnet

import (
	"testing"

	"repro/internal/can"
	"repro/internal/chord"
	"repro/internal/grid"
	"repro/internal/match"
	"repro/internal/pubsub"
	"repro/internal/replica"
	"repro/internal/rntree"
)

func TestLayerOf(t *testing.T) {
	cases := map[string]string{
		// RPC methods, as tagged at CallT/respond.
		grid.MHeartbeat: "heartbeat",
		can.MGossip:     "gossip", // also the name of its loop proc
		rntree.MUpdate:  "gossip",
		chord.MStep:     "chord",
		chord.MNotify:   "chord",
		can.MStep:       "can",
		can.MMatch:      "can",
		rntree.MSearch:  "rntree",
		rntree.MWalk:    "rntree",
		grid.MInject:    "grid",
		grid.MOwnBatch:  "grid",
		pubsub.MPublish: "pubsub",
		replica.MPut:    "replica",
		match.MProbe:    "match",
		"somethingelse": "other",
		// Proc names, as tagged at Endpoint.Go — handlers get an "h:"
		// prefix that must be stripped before classification.
		"h:" + grid.MHeartbeat: "heartbeat",
		"h:" + rntree.MUpdate:  "gossip",
		"h:" + chord.MStep:     "chord",
		"rnt.aggregate":        "gossip",
		"chord.stabilize":      "chord",
		"grid.exec":            "grid",
		"client.submit":        "client",
		"grid.client":          "grid", // grid. prefix wins over the client fallback
	}
	for name, want := range cases {
		if got := LayerOf(name); got != want {
			t.Errorf("LayerOf(%q) = %q, want %q", name, got, want)
		}
	}
}
