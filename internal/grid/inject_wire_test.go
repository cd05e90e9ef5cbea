package grid_test

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/nettransport"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/wire"
)

// The grid.inject wire contract (what gridctl submit and the
// benchmark's one-job-per-RPC client depend on), checked over both
// transports: an accepted job answers its GUID and owner, an owner at
// OwnerCapacity answers InjectResp{RetryAfterMS > 0} with a nil error,
// and an injection node that cannot route answers a handler error.

// fixedOverlay routes every job to owner, or fails when owner is "".
type fixedOverlay struct{ owner transport.Addr }

func (o fixedOverlay) RouteJobs(_ transport.Runtime, jobs []grid.Profile) []grid.Route {
	route := grid.Route{Owner: o.owner, Hops: 1}
	if o.owner == "" {
		route = grid.Route{Err: errors.New("no live owner")}
	}
	return slices.Repeat([]grid.Route{route}, len(jobs))
}

// selfMatch assigns every job to the owner itself. The owner is never
// started, so the job sits in its run queue and stays owned.
type selfMatch struct{ self transport.Addr }

func (m selfMatch) FindRunNodes(_ transport.Runtime, reqs []grid.MatchReq) []grid.MatchResult {
	return slices.Repeat([]grid.MatchResult{{Run: m.self}}, len(reqs))
}

// injectWireContract wires owner (capacity 1, cannot route) and
// injector (routes everything to owner) as grid nodes, then drives
// grid.inject from caller. run executes fn as an activity of caller and
// returns when it has; fn runs off the test goroutine, so it reports
// with t.Errorf.
func injectWireContract(t *testing.T, injector, owner, caller transport.Host, run func(fn func(rt transport.Runtime))) {
	caps := resource.Vector{5, 4096, 100}
	grid.NewNode(owner, caps, "linux", fixedOverlay{}, selfMatch{owner.Addr()}, nil, grid.Config{OwnerCapacity: 1})
	grid.NewNode(injector, caps, "linux", fixedOverlay{owner.Addr()}, selfMatch{injector.Addr()}, nil, grid.Config{})
	run(func(rt transport.Runtime) {
		inject := func(node transport.Addr, seq int) (grid.InjectResp, error) {
			raw, err := rt.Call(node, grid.MInject, grid.InjectReq{Client: caller.Addr(), Seq: seq, Work: time.Hour})
			if err != nil {
				return grid.InjectResp{}, err
			}
			return raw.(grid.InjectResp), nil
		}
		resp, err := inject(injector.Addr(), 1)
		if err != nil {
			t.Errorf("first inject: %v", err)
			return
		}
		if want := grid.JobGUID(caller.Addr(), 1, 0); resp.JobID != want || resp.Owner != owner.Addr() || resp.RetryAfterMS != 0 {
			t.Errorf("first inject answered %+v, want job %s at owner %s", resp, want.Short(), owner.Addr())
			return
		}
		resp, err = inject(injector.Addr(), 2)
		if err != nil {
			t.Errorf("inject to an owner at capacity: handler error %v, want a response", err)
			return
		}
		if resp.RetryAfterMS <= 0 {
			t.Errorf("inject to an owner at capacity answered %+v, want RetryAfterMS > 0", resp)
			return
		}
		if _, err = inject(owner.Addr(), 3); err == nil {
			t.Error("inject at a node that cannot route: nil error, want a handler error")
		}
	})
}

func TestInjectWireContract(t *testing.T) {
	t.Run("sim", func(t *testing.T) {
		e := sim.NewEngine(1)
		defer e.Shutdown()
		net := simnet.New(e)
		var hosts []transport.Host
		for i := 0; i < 3; i++ {
			hosts = append(hosts, net.NewEndpoint(transport.Addr(fmt.Sprintf("n%d", i))))
		}
		injectWireContract(t, hosts[0], hosts[1], hosts[2], func(fn func(rt transport.Runtime)) {
			done := false
			hosts[2].Go("caller", func(rt transport.Runtime) {
				defer func() { done = true }()
				fn(rt)
			})
			for !done {
				e.RunFor(time.Second)
			}
		})
	})
	t.Run("live", func(t *testing.T) {
		wire.RegisterAll()
		var hosts []transport.Host
		for i := 0; i < 3; i++ {
			h, err := nettransport.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer h.Close()
			hosts = append(hosts, h)
		}
		injectWireContract(t, hosts[0], hosts[1], hosts[2], func(fn func(rt transport.Runtime)) {
			done := make(chan struct{})
			hosts[2].Go("caller", func(rt transport.Runtime) {
				defer close(done)
				fn(rt)
			})
			<-done
		})
	})
}
