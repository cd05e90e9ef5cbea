package chord

import (
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// TestCheckRingCatchesEachFault breaks one thing at a time on a warm
// ring and requires CheckRing to notice it.
func TestCheckRingCatchesEachFault(t *testing.T) {
	for _, tc := range []struct {
		name    string
		nodes   int
		corrupt func(sorted []*Node)
	}{
		{"successor skips a node", 12, func(s []*Node) { s[3].succs[0] = s[5].Ref() }},
		{"predecessor dangles", 12, func(s []*Node) { s[4].pred = Ref{} }},
		{"successor list out of order", 12, func(s []*Node) { s[6].succs[2], s[6].succs[3] = s[6].succs[3], s[6].succs[2] }},
		{"successor list short", 12, func(s []*Node) { s[7].succs = s[7].succs[:4] }},
		{"successor list too long on a small ring", 4, func(s []*Node) { s[1].succs = append(s[1].succs, s[2].Ref()) }},
		{"finger stale", 12, func(s []*Node) { s[8].fingers[159] = s[9].Ref() }},
		{"finger zeroed", 12, func(s []*Node) { s[2].fingers[100] = Ref{} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := sim.NewEngine(1)
			defer e.Shutdown()
			net := simnet.New(e)
			var nodes []*Node
			for i := 0; i < tc.nodes; i++ {
				nodes = append(nodes, New(net.NewEndpoint(transport.Addr(fmt.Sprintf("n%03d", i))), Config{}))
			}
			sorted := WarmStart(nodes)
			if err := CheckRing(nodes); err != nil {
				t.Fatalf("warm ring: %v", err)
			}
			tc.corrupt(sorted)
			err := CheckRing(nodes)
			if err == nil {
				t.Fatal("CheckRing passed a broken ring")
			}
			t.Log(err)
		})
	}
}
