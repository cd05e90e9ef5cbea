package main

import (
	"flag"
	"fmt"
	"time"

	"repro/internal/grid"
	"repro/internal/transport"
)

// healthCmd asks one node for its per-peer circuit-breaker table
// (grid.health) and prints it.
//
//	gridctl health -node 127.0.0.1:7001
func healthCmd(args []string) {
	fs := flag.NewFlagSet("health", flag.ExitOnError)
	node := fs.String("node", "127.0.0.1:7001", "grid node to ask")
	_ = fs.Parse(args)

	ask("health", func(rt transport.Runtime) error {
		raw, err := rt.CallT(transport.Addr(*node), grid.MHealth, grid.HealthReq{}, 5*time.Second)
		if err != nil {
			return err
		}
		resp := raw.(grid.HealthResp)
		fmt.Printf("node %s: %d peers with breaker state\n", resp.Node, len(resp.Peers))
		if len(resp.Peers) > 0 {
			fmt.Printf("%-22s %-10s %6s %6s %6s %6s  %s\n",
				"PEER", "STATE", "CONSEC", "FAILS", "OKS", "OPENS", "RETRY-IN")
			for _, p := range resp.Peers {
				retry := "-"
				if p.RetryIn > 0 {
					retry = p.RetryIn.Round(time.Millisecond).String()
				}
				fmt.Printf("%-22s %-10s %6d %6d %6d %6d  %s\n",
					p.Peer, p.State, p.ConsecFails, p.Failures, p.Successes, p.Opens, retry)
			}
		}
		return nil
	})
}
