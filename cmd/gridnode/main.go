// Command gridnode runs one live desktop-grid peer over TCP: it joins
// (or creates) the overlay, advertises its resources, and runs jobs
// submitted by any client (see cmd/gridctl). Jobs execute in a sandbox
// as synthetic CPU work sized by the job profile.
//
// Start a first node, then join more:
//
//	gridnode -listen 127.0.0.1:7001
//	gridnode -listen 127.0.0.1:7002 -bootstrap 127.0.0.1:7001 -cpu 8
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/chord"
	"repro/internal/faultinject"
	"repro/internal/grid"
	"repro/internal/nettransport"
	"repro/internal/obs"
	"repro/internal/peer"
	"repro/internal/resource"
	"repro/internal/rntree"
	"repro/internal/sandbox"
	"repro/internal/transport"
	"repro/internal/trust"
	"repro/internal/wire"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7001", "TCP listen address")
	bootstrap := flag.String("bootstrap", "", "address of an existing node ('' = create a new grid)")
	cpu := flag.Float64("cpu", 5, "advertised CPU speed (1-10)")
	mem := flag.Float64("mem", 4096, "advertised memory (MB)")
	disk := flag.Float64("disk", 100, "advertised disk (GB)")
	osname := flag.String("os", "linux", "advertised operating system")
	replicas := flag.Int("replicas", 1, "redundant executions per owned job (1 = no voting)")
	quorum := flag.Int("quorum", 1, "matching result digests required to accept")
	probeEvery := flag.Duration("probe-every", 0, "known-answer probe interval for blacklisted peers (0 = off)")
	notify := flag.Bool("notify", false, "publish job-state transitions over the DHT pub/sub overlay (clients subscribe at submit; see 'gridctl watch')")
	metricsAddr := flag.String("metrics-addr", "", "HTTP address for /metrics, /events, /debug/pprof ('' = off)")
	ownerCap := flag.Int("owner-cap", 0, "bound on jobs this node will own at once; beyond it injections are rejected with a retry-after hint (0 = unbounded)")
	chaosSpec := flag.String("chaos", "", "deterministic outbound fault schedule, e.g. 'method=grid.assign reset=0.1; delay=0.2:300ms' (DESIGN.md §12; '' = off)")
	chaosSeed := flag.Int64("chaos-seed", 1, "seed for the -chaos schedule; same seed, same rules => same fault sequence")
	chaosLog := flag.String("chaos-log", "", "append one 'from to method leg seq fate' line per chaos decision to this file ('' = off)")
	flag.Parse()

	// Out-of-range numbers are usage errors, like a bad -chaos spec.
	for _, c := range []struct {
		bad bool
		msg string
	}{
		{*replicas < 1, "-replicas: must be at least 1"},
		{*quorum < 1, "-quorum: must be at least 1"},
		{*probeEvery < 0, "-probe-every: must not be negative"},
		{*ownerCap < 0, "-owner-cap: must not be negative"},
	} {
		if c.bad {
			fmt.Fprintf(os.Stderr, "gridnode: %s\n", c.msg)
			os.Exit(2)
		}
	}

	var topts nettransport.Opts
	chaos, err := faultinject.ParseChaos(*chaosSeed, *chaosSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gridnode: -chaos: %v\n", err)
		os.Exit(2)
	}
	if chaos != nil {
		if *chaosLog != "" {
			f, err := os.OpenFile(*chaosLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				fmt.Fprintf(os.Stderr, "gridnode: -chaos-log: %v\n", err)
				os.Exit(2)
			}
			defer f.Close()
			chaos.SetLog(f)
		}
		topts.Chaos = chaos
		fmt.Printf("gridnode: chaos on (seed %d: %s)\n", *chaosSeed, *chaosSpec)
	}

	wire.RegisterAll()
	host, err := nettransport.ListenOpts(*listen, topts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gridnode: %v\n", err)
		os.Exit(1)
	}
	defer host.Close()
	caps := resource.Vector{*cpu, *mem, *disk}

	// One obs sink spans every layer of this process; nil disables all
	// instrumentation (every instrument is nil-safe).
	var o *obs.Obs
	if *metricsAddr != "" {
		o = obs.New()
		host.SetObs(o)
		srv, bound, err := obs.Serve(*metricsAddr, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gridnode: metrics: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("gridnode: metrics at http://%s/metrics (events at /events, profiles at /debug/pprof)\n", bound)
	}

	// Voting implies reputation: the owner scores replicas against each
	// accepted digest, and matchmaking avoids blacklisted peers. The
	// table is answerable over grid.trust (gridctl trust).
	var tb *trust.Table
	if *replicas > 1 || *quorum > 1 {
		tb = trust.New()
	}
	logger := grid.RecorderFunc(func(ev grid.Event) {
		fmt.Printf("%s job=%s attempt=%d node=%s\n", ev.Kind, ev.JobID.Short(), ev.Attempt, ev.Node)
	})
	// Jobs run inside a sandbox (Section 5 of the paper): private
	// filesystem root, no network, output quota, bounded runtime. The
	// work itself is synthetic (the profile's nominal duration) with the
	// job's input/output sizes materialized as files.
	box := sandbox.New(sandbox.Policy{
		MaxOutputBytes: 64 << 20,
		MaxRuntime:     time.Hour,
	})
	executor := func(prof grid.Profile) (int, error) {
		out, err := box.Run(context.Background(), func(ctx context.Context, env *sandbox.Env) ([]byte, error) {
			if err := env.WriteFile("input.dat", make([]byte, prof.InputKB*1024)); err != nil {
				return nil, err
			}
			select {
			case <-time.After(prof.Work):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			// The result digest covers the size the client submitted.
			output := make([]byte, prof.OutputKB*1024)
			if err := env.WriteFile("output.dat", output); err != nil {
				return nil, err
			}
			return output, nil
		})
		if err != nil {
			return 0, err
		}
		return len(out) / 1024, nil
	}
	p := peer.New(host, caps, *osname, logger, peer.Config{
		Chord: chord.Config{Obs: o},
		Tree:  rntree.Config{AggregateEvery: time.Second, Obs: o},
		Grid: grid.Config{
			HeartbeatEvery: time.Second,
			Executor:       executor,
			Replicas:       *replicas,
			Quorum:         *quorum,
			Trust:          tb,
			ProbeEvery:     *probeEvery,
			OwnerCapacity:  *ownerCap,
			Obs:            o,
			// Transport health feeds graceful degradation (breaker-open
			// peers demoted in matchmaking and probing) and grid.health.
			PeerDown: host.PeerDown,
			Health:   host.Health,
		},
		Notify: *notify,
	})
	if err := chaos.CheckServed(host.Handles); err != nil {
		fmt.Fprintf(os.Stderr, "gridnode: -chaos: %v\n", err)
		os.Exit(2)
	}

	// Scripts wait for the ready line (scripts/lib.sh). After a gate
	// timeout the node serves anyway: ring and tree keep repairing.
	if err := p.LaunchWait(transport.Addr(*bootstrap)); err != nil {
		if !errors.Is(err, peer.ErrNotReady) {
			fmt.Fprintf(os.Stderr, "gridnode: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "gridnode: %v; serving anyway\n", err)
	}
	fmt.Printf("gridnode: ready at %s (id %s, bootstrap %q, notify %v, caps=%s os=%s); ctrl-c to stop\n",
		host.Addr(), p.Ring.ID().Short(), *bootstrap, *notify, caps, *osname)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("gridnode: shutting down")
}
