package peer

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chord"
	"repro/internal/grid"
	"repro/internal/ids"
	"repro/internal/nettransport"
	"repro/internal/obs"
	"repro/internal/resource"
	"repro/internal/rntree"
	"repro/internal/transport"
	"repro/internal/wire"
)

// liveGrid launches n loopback-TCP peers with fast maintenance, each
// host counting its RPCs in its own obs.Obs, and returns once every
// peer has launched. The hosts close when the test ends.
func liveGrid(t *testing.T, n int) ([]*Peer, []*obs.Obs) {
	t.Helper()
	wire.RegisterAll()
	ps := make([]*Peer, n)
	obss := make([]*obs.Obs, n)
	for i := range ps {
		h, err := nettransport.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { h.Close() })
		obss[i] = obs.New()
		h.SetObs(obss[i])
		ps[i] = New(h, resource.Vector{5, 2048, 50}, "linux", nil, Config{
			Chord: chord.Config{StabilizeEvery: 50 * time.Millisecond, FixFingersEvery: 50 * time.Millisecond},
			Tree:  rntree.Config{AggregateEvery: 100 * time.Millisecond},
			Grid:  grid.Config{HeartbeatEvery: 200 * time.Millisecond},
		})
	}
	boot := transport.Addr("")
	for _, p := range ps {
		if err := p.LaunchWait(boot); err != nil {
			t.Fatal(err)
		}
		boot = ps[0].Host.Addr()
	}
	return ps, obss
}

// clientCalls sums the calls the hosts behind obss made of method.
func clientCalls(obss []*obs.Obs, method string) int64 {
	var sum int64
	for _, o := range obss {
		sum += o.Registry().Counter("rpc_client_calls_total", "method", method).Value()
	}
	return sum
}

// liveTree reads every peer's parent. It reports the peers' depths (the
// ancestors above each) once they form one tree: a single root, and
// every other peer's parent chain reaching it.
func liveTree(ps []*Peer) (parents []chord.Ref, depth []int, ok bool) {
	byAddr := make(map[transport.Addr]*Peer, len(ps))
	for _, p := range ps {
		byAddr[p.Host.Addr()] = p
	}
	for _, p := range ps {
		parents = append(parents, p.Tree.Parent())
	}
	roots := 0
	for i, p := range ps {
		d := 0
		for q := p.Tree.Parent(); !q.IsZero(); q = byAddr[q.Addr].Tree.Parent() {
			if byAddr[q.Addr] == nil || d == len(ps) {
				return nil, nil, false
			}
			d++
		}
		depth = append(depth, d)
		if d == 0 {
			roots++
		}
		if parents[i] != p.Tree.Parent() {
			return nil, nil, false
		}
	}
	return parents, depth, roots == 1
}

// settledTree waits for one tree that holds still for polls reads 20 ms
// apart, and fails the test after 10 s without one.
func settledTree(t *testing.T, ps []*Peer, polls int) (parents []chord.Ref, depth []int) {
	t.Helper()
	for still, deadline := 0, time.Now().Add(10*time.Second); still < polls; time.Sleep(20 * time.Millisecond) {
		prev := parents
		var ok bool
		if parents, depth, ok = liveTree(ps); ok && slices.Equal(parents, prev) {
			still++
		} else {
			still = 0
		}
		if time.Now().After(deadline) {
			t.Fatal("no single tree holding still after 10 s")
		}
	}
	return parents, depth
}

// injectLive sends jobs zero-work jobs in one grid.injectbatch to peer 0
// from a client that is not a peer, and fails the test unless every job
// is accepted and comes back exactly once. It returns the batch's
// results.
func injectLive(t *testing.T, ps []*Peer, jobs int) []grid.InjectResult {
	t.Helper()
	client, err := nettransport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	var mu sync.Mutex
	got := map[ids.ID]int{}
	all := make(chan struct{})
	client.Handle(grid.MResult, func(rt transport.Runtime, from transport.Addr, req any) (any, error) {
		mu.Lock()
		defer mu.Unlock()
		got[req.(grid.ResultReq).Res.JobID]++
		if len(got) == jobs && got[req.(grid.ResultReq).Res.JobID] == 1 {
			close(all)
		}
		return grid.ResultResp{}, nil
	})

	var failed []string
	var results []grid.InjectResult
	sent := make(chan struct{})
	client.Go("client", func(rt transport.Runtime) {
		defer close(sent)
		for _, p := range ps {
			if !p.Tree.AwaitAttached(rt, 10*time.Second) {
				failed = append(failed, fmt.Sprintf("peer %s has no parent and no child", p.Host.Addr()))
				return
			}
		}
		req := grid.InjectBatchReq{Items: make([]grid.InjectReq, jobs)}
		for i := range req.Items {
			req.Items[i] = grid.InjectReq{Client: client.Addr(), Seq: i}
		}
		raw, err := rt.Call(ps[0].Host.Addr(), grid.MInjectBatch, req)
		if err != nil {
			failed = append(failed, fmt.Sprintf("grid.injectbatch: %v", err))
			return
		}
		results = raw.(grid.InjectBatchResp).Results
		for i, res := range results {
			if res.Err != "" || res.RetryAfterMS > 0 {
				failed = append(failed, fmt.Sprintf("job %d not accepted: %+v", i, res))
			}
		}
	})
	<-sent
	if len(failed) > 0 {
		t.Fatal(strings.Join(failed, "; "))
	}
	select {
	case <-all:
	case <-time.After(30 * time.Second):
	}
	// A duplicate would come soon after the last first delivery.
	time.Sleep(200 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if len(got) != jobs {
		t.Fatalf("%d of %d jobs delivered", len(got), jobs)
	}
	for id, n := range got {
		if n != 1 {
			t.Errorf("job %s delivered %d times", id.Short(), n)
		}
	}
	return results
}
