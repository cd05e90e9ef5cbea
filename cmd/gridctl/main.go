// Command gridctl submits jobs to a live grid (cmd/gridnode) and waits
// for results. It acts as the paper's external client: it contacts any
// grid node as its injection node and receives the result directly from
// the run node.
//
//	gridctl -node 127.0.0.1:7001 -work 5s -mincpu 2 -n 3
//
// The trust subcommand dumps a node's local reputation table (scores
// are per-owner observations; there is no gossip):
//
//	gridctl trust -node 127.0.0.1:7001
//
// The stats subcommand dumps a node's live counters and metric
// snapshot; trace reconstructs one job's cross-node lifecycle from the
// per-node trace buffers (DESIGN.md §8):
//
//	gridctl stats -node 127.0.0.1:7001
//	gridctl trace -node 127.0.0.1:7001 <job-id>
//
// The replicas subcommand shows a job's replicated owner state as one
// node sees it — record version/epoch, current owner, and (asked of
// the owner) which successors have acknowledged the latest write
// (DESIGN.md §10):
//
//	gridctl replicas -node 127.0.0.1:7001 <job-id>
//
// The health subcommand prints a node's per-peer circuit-breaker
// table (grid.health, DESIGN.md §12); chaos runs the live chaos soak —
// it joins the grid as a peer, submits jobs under whatever fault
// schedule the nodes were started with, and asserts exactly-once
// completion (scripts/live_chaos.sh drives it):
//
//	gridctl health -node 127.0.0.1:7001
//	gridctl chaos -bootstrap 127.0.0.1:7001 -n 40 -work 300ms -json
//
// The watch subcommand follows one job's push notifications over the
// DHT pub/sub overlay (nodes must run with -notify; DESIGN.md §13) —
// job-state transitions stream in as owners publish them, with no
// status polling:
//
//	gridctl watch -node 127.0.0.1:7001 <job-id>
//
// The flow subcommand runs a declarative workflow file (DESIGN.md §15)
// against the grid: stages submit as their dependencies deliver, each
// stage's input is the bundle of its dependencies' outputs, and the
// exit status asserts every stage delivered exactly once:
//
//	gridctl flow run -bootstrap 127.0.0.1:7001 pipeline.flow
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/grid"
	"repro/internal/ids"
	"repro/internal/nettransport"
	"repro/internal/obs"
	"repro/internal/resource"
	"repro/internal/transport"
	"repro/internal/wire"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "trust":
			trustCmd(os.Args[2:])
			return
		case "stats":
			statsCmd(os.Args[2:])
			return
		case "trace":
			traceCmd(os.Args[2:])
			return
		case "replicas":
			replicasCmd(os.Args[2:])
			return
		case "health":
			healthCmd(os.Args[2:])
			return
		case "chaos":
			chaosCmd(os.Args[2:])
			return
		case "watch":
			watchCmd(os.Args[2:])
			return
		case "flow":
			flowCmd(os.Args[2:])
			return
		}
	}
	node := flag.String("node", "127.0.0.1:7001", "injection node address")
	work := flag.Duration("work", 5*time.Second, "job runtime")
	n := flag.Int("n", 1, "number of jobs")
	minCPU := flag.Float64("mincpu", 0, "minimum CPU speed (0 = unconstrained)")
	minMem := flag.Float64("minmem", 0, "minimum memory MB")
	minDisk := flag.Float64("mindisk", 0, "minimum disk GB")
	osReq := flag.String("os", "", "required OS ('' = any)")
	timeout := flag.Duration("timeout", 5*time.Minute, "per-batch result deadline")
	flag.Parse()

	wire.RegisterAll()
	host, err := nettransport.Listen("127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(os.Stderr, "gridctl: %v\n", err)
		os.Exit(1)
	}
	defer host.Close()

	cons := resource.Unconstrained
	if *minCPU > 0 {
		cons = cons.Require(resource.CPU, *minCPU)
	}
	if *minMem > 0 {
		cons = cons.Require(resource.Memory, *minMem)
	}
	if *minDisk > 0 {
		cons = cons.Require(resource.Disk, *minDisk)
	}
	if *osReq != "" {
		cons = cons.RequireOS(*osReq)
	}

	var mu sync.Mutex
	results := map[ids.ID]grid.Result{}
	gotAll := make(chan struct{})
	want := *n
	host.Handle(grid.MResult, func(rt transport.Runtime, from transport.Addr, req any) (any, error) {
		res := req.(grid.ResultReq).Res
		mu.Lock()
		if _, dup := results[res.JobID]; !dup {
			results[res.JobID] = res
			fmt.Printf("result job=%s run-node=%s elapsed=%v\n",
				res.JobID.Short(), res.RunNode, (res.Finished - res.Started).Round(time.Millisecond))
			if len(results) == want {
				close(gotAll)
			}
		}
		mu.Unlock()
		return grid.ResultResp{}, nil
	})

	submitted := make(chan error, 1)
	host.Go("submit", func(rt transport.Runtime) {
		base := int(time.Now().UnixNano() % 1e9)
		for i := 0; i < want; i++ {
			req := grid.InjectReq{
				Client:  host.Addr(),
				Seq:     base + i,
				Attempt: 0,
				Cons:    cons,
				Work:    *work,
				InputKB: 4,
			}
			raw, err := rt.CallT(transport.Addr(*node), grid.MInject, req, 30*time.Second)
			if err != nil {
				submitted <- fmt.Errorf("inject %d: %w", i, err)
				return
			}
			resp := raw.(grid.InjectResp)
			// Full GUID: it doubles as the job's trace ID for
			// `gridctl trace`.
			fmt.Printf("submitted job=%s owner=%s hops=%d\n", resp.JobID, resp.Owner, resp.Hops)
		}
		submitted <- nil
	})
	if err := <-submitted; err != nil {
		fmt.Fprintf(os.Stderr, "gridctl: %v\n", err)
		os.Exit(1)
	}

	select {
	case <-gotAll:
		fmt.Printf("all %d results received\n", want)
	case <-time.After(*timeout):
		mu.Lock()
		got := len(results)
		mu.Unlock()
		fmt.Fprintf(os.Stderr, "gridctl: timeout with %d/%d results\n", got, want)
		os.Exit(1)
	}
}

// statsCmd asks one node for its live stats snapshot and prints it.
func statsCmd(args []string) {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	node := fs.String("node", "127.0.0.1:7001", "node whose stats to dump")
	all := fs.Bool("all", false, "print every metric sample, not just the summary")
	_ = fs.Parse(args)

	ask("stats", func(rt transport.Runtime) error {
		raw, err := rt.CallT(transport.Addr(*node), grid.MStats, grid.StatsReq{}, 10*time.Second)
		if err != nil {
			return err
		}
		s := raw.(grid.StatsResp).Stats
		fmt.Printf("node %s (up %v)\n", s.Addr, s.Now.Round(time.Second))
		fmt.Printf("  queue=%d owned=%d pending=%d completed=%d executed=%v\n",
			s.QueueLen, s.Owned, s.Pending, s.Completed, s.Executed.Round(time.Second))
		if *all {
			for _, sm := range s.Samples {
				fmt.Printf("  %-56s %g\n", sm.Name, sm.Value)
			}
		} else {
			for _, sm := range s.Samples {
				if strings.HasSuffix(sm.Name, "_total") || strings.Contains(sm.Name, "_total{") {
					fmt.Printf("  %-56s %g\n", sm.Name, sm.Value)
				}
			}
			fmt.Println("  (use -all for histograms and gauges)")
		}
		return nil
	})
}

// traceCmd reconstructs one job's cross-node lifecycle: it pulls the
// trace buffer from the starting node, follows every peer named in the
// responses (bounded breadth-first walk), merges the events in causal
// hop order, and prints the result.
func traceCmd(args []string) {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	node := fs.String("node", "127.0.0.1:7001", "node to start the trace walk at")
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: gridctl trace [-node addr] <job-id>")
		os.Exit(2)
	}
	trace, err := ids.Parse(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "gridctl: trace: bad job id: %v\n", err)
		os.Exit(2)
	}

	ask("trace", func(rt transport.Runtime) error {
		const maxNodes = 64
		var evs []obs.TraceEvent
		seen := map[transport.Addr]bool{}
		queue := []transport.Addr{transport.Addr(*node)}
		asked := 0
		for len(queue) > 0 && len(seen) < maxNodes {
			cur := queue[0]
			queue = queue[1:]
			if seen[cur] {
				continue
			}
			seen[cur] = true
			raw, err := rt.CallT(cur, grid.MTrace, grid.TraceReq{Trace: trace}, 10*time.Second)
			if err != nil {
				continue // dead or obs-less node; the rest may still answer
			}
			asked++
			resp := raw.(grid.TraceResp)
			evs = append(evs, resp.Events...)
			queue = append(queue, resp.Peers...)
		}
		if asked == 0 {
			return fmt.Errorf("no node answered (is -metrics-addr / obs enabled?)")
		}
		evs = obs.MergeSort(evs)
		if len(evs) == 0 {
			return fmt.Errorf("no events for job %s on %d nodes (trace evicted or id unknown)", trace, asked)
		}
		fmt.Printf("trace %s: %d events from %d nodes\n", trace, len(evs), asked)
		fmt.Printf("%-4s %-12s %-22s %-18s a%-3s %-22s %s\n", "hop", "at", "stage", "node", "", "peer", "note")
		for _, ev := range evs {
			fmt.Printf("%-4d %-12v %-22s %-18s a%-3d %-22s %s\n",
				ev.Hop, ev.At.Round(time.Millisecond), ev.Stage, ev.Node, ev.Attempt, ev.Peer, ev.Note)
		}
		return nil
	})
}

// replicasCmd asks one node for a job's replication status and prints
// it: the record's ordering fields plus, when the asked node is the
// owner, the per-successor acknowledgement state.
func replicasCmd(args []string) {
	fs := flag.NewFlagSet("replicas", flag.ExitOnError)
	node := fs.String("node", "127.0.0.1:7001", "node whose view of the record to dump")
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: gridctl replicas [-node addr] <job-id>")
		os.Exit(2)
	}
	jobID, err := ids.Parse(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "gridctl: replicas: bad job id: %v\n", err)
		os.Exit(2)
	}

	ask("replicas", func(rt transport.Runtime) error {
		raw, err := rt.CallT(transport.Addr(*node), grid.MReplicas, grid.ReplicasReq{JobID: jobID}, 10*time.Second)
		if err != nil {
			return err
		}
		st := raw.(grid.ReplicasResp).Status
		if !st.Known {
			fmt.Printf("node %s holds no record for job %s (replication off, GC'd, or never replicated here)\n",
				*node, jobID.Short())
			return nil
		}
		state := "live"
		if st.Deleted {
			state = "tombstone"
		}
		fmt.Printf("job %s: owner=%s epoch=%d version=%d state=%s\n",
			jobID.Short(), st.Owner, st.Epoch, st.Version, state)
		if len(st.Peers) == 0 {
			fmt.Printf("  (no replica set: ask the owner %s for acknowledgement state)\n", st.Owner)
			return nil
		}
		fmt.Printf("  %-24s %-7s %-9s %s\n", "replica", "epoch", "version", "acked")
		for _, p := range st.Peers {
			fmt.Printf("  %-24s %-7d %-9d %v\n", p.Addr, p.Epoch, p.Version, p.Acked)
		}
		return nil
	})
}

// trustCmd asks one node for its reputation table and prints it.
func trustCmd(args []string) {
	fs := flag.NewFlagSet("trust", flag.ExitOnError)
	node := fs.String("node", "127.0.0.1:7001", "node whose reputation table to dump")
	_ = fs.Parse(args)

	ask("trust", func(rt transport.Runtime) error {
		raw, err := rt.CallT(transport.Addr(*node), grid.MTrust, grid.TrustReq{}, 10*time.Second)
		if err != nil {
			return err
		}
		entries := raw.(grid.TrustResp).Entries
		if len(entries) == 0 {
			fmt.Printf("node %s tracks no peers (trust disabled or no votes yet)\n", *node)
			return nil
		}
		fmt.Printf("%-24s %-7s %-7s %-10s %-9s %-10s %s\n",
			"node", "score", "agreed", "disagreed", "probes-ok", "probes-bad", "blacklisted")
		for _, e := range entries {
			fmt.Printf("%-24s %-7.3f %-7d %-10d %-9d %-10d %v\n",
				e.Node, e.Score, e.Agreed, e.Disagreed, e.ProbesOK, e.ProbesBad, e.Blacklisted)
		}
		return nil
	})
}

// ask runs one query on a fresh client host, the shared body of the
// one-shot subcommands, and exits 1 with "gridctl: <name>: <err>" if
// it fails.
func ask(name string, fn func(rt transport.Runtime) error) {
	wire.RegisterAll()
	host, err := nettransport.Listen("127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(os.Stderr, "gridctl: %v\n", err)
		os.Exit(1)
	}
	done := make(chan error, 1)
	host.Go(name, func(rt transport.Runtime) { done <- fn(rt) })
	err = <-done
	host.Close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "gridctl: %s: %v\n", name, err)
		os.Exit(1)
	}
}
