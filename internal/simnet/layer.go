package simnet

import "strings"

// LayerOf classifies an RPC method or proc name into the subsystem
// vocabulary the kernel stats report ranks (DESIGN.md §14). The names
// follow the same prefixes the obs metrics registry uses
// (rpc_client_calls_total{method="chord.step"}, grid_events_total, …),
// so the simulator's per-layer attribution and the live metrics speak
// one vocabulary. Handler procs are named "h:<method>" by the network;
// the prefix is stripped before classification.
func LayerOf(name string) string {
	name = strings.TrimPrefix(name, "h:")
	switch {
	case name == "grid.heartbeat":
		return "heartbeat"
	case name == "can.gossip" || name == "rnt.aggregate" || name == "rnt.update":
		// Periodic state dissemination, as opposed to routed lookups:
		// CAN's gossip loop and RPC, the RN-Tree's summary loop and the
		// rnt.update RPC it sends.
		return "gossip"
	case strings.HasPrefix(name, "chord."):
		return "chord"
	case strings.HasPrefix(name, "can."):
		return "can"
	case strings.HasPrefix(name, "rnt."):
		return "rntree"
	case strings.HasPrefix(name, "grid."):
		return "grid"
	case strings.HasPrefix(name, "pubsub."):
		return "pubsub"
	case strings.HasPrefix(name, "replica."):
		return "replica"
	case strings.HasPrefix(name, "match."):
		return "match"
	case strings.HasPrefix(name, "client"):
		return "client"
	default:
		return "other"
	}
}
