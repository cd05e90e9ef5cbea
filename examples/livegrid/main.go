// Livegrid: boots a real 4-peer desktop grid over TCP sockets in one
// process and runs actual sandboxed N-body integrations through the
// full stack — Chord ring, RN-Tree matchmaking, owner/run-node
// protocol, heartbeats, and direct result delivery. The same protocol
// code the simulator exercises, over real sockets and real work.
//
//	go run ./examples/livegrid
package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/chord"
	"repro/internal/grid"
	"repro/internal/nettransport"
	"repro/internal/peer"
	"repro/internal/resource"
	"repro/internal/rntree"
	"repro/internal/sandbox"
	"repro/internal/transport"
	"repro/internal/wire"
)

// nbody integrates a Plummer-like sphere with a leapfrog scheme and
// returns the relative energy drift — the correctness check a real
// astronomy campaign would make.
func nbody(bodies, steps int) float64 {
	type vec struct{ x, y, z float64 }
	pos := make([]vec, bodies)
	vel := make([]vec, bodies)
	// Deterministic initial conditions on a spiral shell.
	for i := range pos {
		t := float64(i) * 2.3999632 // golden angle
		r := 1 + float64(i%7)/7
		pos[i] = vec{r * math.Cos(t), r * math.Sin(t), (float64(i%13) - 6) / 13}
		vel[i] = vec{-math.Sin(t) / 4, math.Cos(t) / 4, 0}
	}
	const dt, eps = 0.001, 0.05
	acc := func() []vec {
		a := make([]vec, bodies)
		for i := 0; i < bodies; i++ {
			for j := i + 1; j < bodies; j++ {
				dx := pos[j].x - pos[i].x
				dy := pos[j].y - pos[i].y
				dz := pos[j].z - pos[i].z
				r2 := dx*dx + dy*dy + dz*dz + eps*eps
				inv := 1 / (r2 * math.Sqrt(r2))
				a[i].x += dx * inv
				a[i].y += dy * inv
				a[i].z += dz * inv
				a[j].x -= dx * inv
				a[j].y -= dy * inv
				a[j].z -= dz * inv
			}
		}
		return a
	}
	energy := func() float64 {
		e := 0.0
		for i := 0; i < bodies; i++ {
			e += 0.5 * (vel[i].x*vel[i].x + vel[i].y*vel[i].y + vel[i].z*vel[i].z)
			for j := i + 1; j < bodies; j++ {
				dx := pos[j].x - pos[i].x
				dy := pos[j].y - pos[i].y
				dz := pos[j].z - pos[i].z
				e -= 1 / math.Sqrt(dx*dx+dy*dy+dz*dz+eps*eps)
			}
		}
		return e
	}
	e0 := energy()
	a := acc()
	for s := 0; s < steps; s++ {
		for i := range pos {
			vel[i].x += 0.5 * dt * a[i].x
			vel[i].y += 0.5 * dt * a[i].y
			vel[i].z += 0.5 * dt * a[i].z
			pos[i].x += dt * vel[i].x
			pos[i].y += dt * vel[i].y
			pos[i].z += dt * vel[i].z
		}
		a = acc()
		for i := range pos {
			vel[i].x += 0.5 * dt * a[i].x
			vel[i].y += 0.5 * dt * a[i].y
			vel[i].z += 0.5 * dt * a[i].z
		}
	}
	return math.Abs((energy() - e0) / e0)
}

func main() {
	wire.RegisterAll()
	const N = 4

	peers := make([]*peer.Peer, N)
	for i := 0; i < N; i++ {
		h, err := nettransport.Listen("127.0.0.1:0")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer h.Close()
		caps := resource.Vector{float64(3 + i*2), 2048, 50}

		// Real work: each job runs an N-body integration inside a
		// sandbox with no network and a private filesystem root.
		box := sandbox.New(sandbox.Policy{MaxRuntime: time.Minute})
		addr := h.Addr()
		executor := func(prof grid.Profile) (int, error) {
			out, err := box.Run(context.Background(), func(ctx context.Context, env *sandbox.Env) ([]byte, error) {
				bodies := 64 + prof.InputKB*16
				drift := nbody(bodies, 25)
				report := fmt.Sprintf("node=%s bodies=%d energy-drift=%.2e", addr, bodies, drift)
				if err := env.WriteFile("result.txt", []byte(report)); err != nil {
					return nil, err
				}
				return []byte(report), nil
			})
			if err != nil {
				return 0, err
			}
			fmt.Printf("  ran: %s\n", out)
			return len(out) / 1024, nil
		}
		peers[i] = peer.New(h, caps, "linux", nil, peer.Config{
			Chord: chord.Config{StabilizeEvery: 50 * time.Millisecond, FixFingersEvery: 50 * time.Millisecond},
			Tree:  rntree.Config{AggregateEvery: 100 * time.Millisecond},
			Grid: grid.Config{
				HeartbeatEvery:  200 * time.Millisecond,
				MatchRetryEvery: 500 * time.Millisecond,
				Executor:        executor,
			},
		})
	}

	// Peer 0 creates the ring, the rest join through it once it is ready.
	boot := transport.Addr("")
	for _, p := range peers {
		if err := p.LaunchWait(boot); err != nil {
			fmt.Fprintln(os.Stderr, "launch:", err)
			os.Exit(1)
		}
		boot = peers[0].Host.Addr()
	}
	client := peers[0].Grid
	// The client-side watchdog: if a job's owner gives up (e.g. the
	// matchmaking walk keeps missing the one peer that satisfies a tight
	// constraint while the grid is busy), the job is resubmitted under a
	// fresh GUID instead of being lost.
	client.StartClientMonitor(2 * time.Second)
	fmt.Printf("live grid up: %d peers on real TCP sockets\n", N)

	done := make(chan bool, 1)
	peers[0].Host.Go("client", func(rt transport.Runtime) {
		// Matchmaking is only as good as the tree it searches: no submit
		// before every peer has a parent or a child. (Only the creator,
		// ready as a grid of one, can still be finding its place.)
		for _, p := range peers {
			if !p.Tree.AwaitAttached(rt, 10*time.Second) {
				fmt.Fprintf(os.Stderr, "peer %s has no parent and no child: the RN-Tree did not form\n", p.Host.Addr())
				done <- false
				return
			}
		}
		// Submit a small sweep; constraints steer big runs to fast peers.
		for _, kb := range []int{2, 6, 10} {
			job := grid.JobSpec{Work: time.Second, InputKB: kb}
			if kb >= 10 {
				job.Cons = job.Cons.Require(resource.CPU, 7)
			}
			if _, err := client.Submit(rt, job); err != nil {
				fmt.Fprintln(os.Stderr, "submit:", err)
			}
		}
		done <- client.AwaitAll(rt, rt.Now()+time.Minute) == 0
	})
	if ok := <-done; !ok {
		fmt.Fprintln(os.Stderr, "some jobs did not finish")
		os.Exit(1)
	}
	fmt.Println("all sandboxed N-body jobs completed and returned results")
}
