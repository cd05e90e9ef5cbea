package simnet

import "testing"

func TestLayerOf(t *testing.T) {
	cases := map[string]string{
		// RPC methods, as tagged at CallT/respond.
		"grid.heartbeat": "heartbeat",
		"can.gossip":     "gossip",
		"rnt.aggregate":  "gossip",
		"chord.getsucc":  "chord",
		"can.route":      "can",
		"rnt.match":      "rntree",
		"grid.inject":    "grid",
		"grid.ownbatch":  "grid",
		"pubsub.publish": "pubsub",
		"replica.put":    "replica",
		"ttlsearch":      "match",
		"client.deliver": "client",
		"somethingelse":  "other",
		// Proc names, as tagged at Endpoint.Go — handlers get an "h:"
		// prefix that must be stripped before classification.
		"h:grid.heartbeat": "heartbeat",
		"h:chord.getsucc":  "chord",
		"chord.stabilize":  "chord",
		"grid.exec":        "grid",
		"grid.client":      "grid", // grid. prefix wins over the client fallback
	}
	for name, want := range cases {
		if got := LayerOf(name); got != want {
			t.Errorf("LayerOf(%q) = %q, want %q", name, got, want)
		}
	}
}
