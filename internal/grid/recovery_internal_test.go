package grid

// Regression tests for recovery-path races in the owner role. These
// are white-box: they drive monitorTick, handleHeartbeat, and tryRelay
// directly against a stub host, reproducing interleavings that the
// cooperative simulator cannot schedule (the original
// ownerMonitorLoop nil-dereference needed a map deletion between two
// lock regions of the same tick).

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/resource"
	"repro/internal/transport"
)

// stubRT is a minimal transport.Runtime whose Call is scripted.
type stubRT struct {
	now  time.Duration
	rng  *rand.Rand
	call func(to transport.Addr, method string, req any) (any, error)
}

func (r *stubRT) Now() time.Duration    { return r.now }
func (r *stubRT) Sleep(d time.Duration) { r.now += d }
func (r *stubRT) Rand() *rand.Rand      { return r.rng }
func (r *stubRT) Wait(*transport.Cond, time.Duration) bool {
	panic("stubRT: scripted handlers never park")
}
func (r *stubRT) Call(to transport.Addr, method string, req any) (any, error) {
	if r.call == nil {
		return nil, transport.ErrUnreachable
	}
	return r.call(to, method, req)
}
func (r *stubRT) CallT(to transport.Addr, method string, req any, _ time.Duration) (any, error) {
	return r.Call(to, method, req)
}

// stubHost records spawned activities without running them.
type stubHost struct {
	addr   transport.Addr
	spawns []string
}

func (h *stubHost) Addr() transport.Addr             { return h.addr }
func (h *stubHost) Handle(string, transport.Handler) {}
func (h *stubHost) Go(name string, fn func(rt transport.Runtime)) {
	h.spawns = append(h.spawns, name)
}
func (h *stubHost) Up() bool { return true }

type stubMatcher struct{}

func (stubMatcher) FindRunNode(transport.Runtime, resource.Constraints, []transport.Addr) (transport.Addr, MatchStats, error) {
	return "", MatchStats{}, errors.New("no candidates")
}

func newStubNode(rec Recorder, cfg Config) (*Node, *stubHost) {
	h := &stubHost{addr: "owner"}
	n := NewNode(h, resource.Vector{4, 1024, 100}, "linux", nil, stubMatcher{}, rec, cfg)
	return n, h
}

// orderedIDs returns two distinct job IDs with a.Less(b).
func orderedIDs() (ids.ID, ids.ID) {
	a, b := ids.HashString("job-a"), ids.HashString("job-b")
	if b.Less(a) {
		a, b = b, a
	}
	return a, b
}

// TestMonitorTickSurvivesConcurrentComplete reproduces the
// ownerMonitorLoop nil-dereference: two jobs' run nodes go silent in
// the same tick, and while the first failure is being recorded a
// completion for the second job arrives and deletes it. The old code
// re-read n.owned[id].prof after the scan unlocked and panicked on the
// deleted entry; the fix captures the profile during the scan.
func TestMonitorTickSurvivesConcurrentComplete(t *testing.T) {
	idA, idB := orderedIDs()
	cfg := Config{HeartbeatEvery: time.Second, RunDeadAfter: 3 * time.Second}
	rt := &stubRT{now: time.Minute, rng: rand.New(rand.NewSource(1))}

	var n *Node
	completed := false
	rec := RecorderFunc(func(ev Event) {
		// The instant the first dead run node is recorded, the second
		// job completes — the interleaving a concurrent handleComplete
		// produces between the monitor's lock regions.
		if ev.Kind == EvRunFailureDetected && ev.JobID == idA && !completed {
			completed = true
			if _, err := n.handleComplete(rt, "run2", CompleteReq{JobID: idB, Run: "run2"}); err != nil {
				t.Fatalf("handleComplete: %v", err)
			}
		}
	})
	n, _ = newStubNode(rec, cfg)
	for _, id := range []ids.ID{idA, idB} {
		n.owned[id] = &ownedJob{
			prof:    Profile{ID: id, Client: "client"},
			run:     transport.Addr("run-" + id.Short()),
			matched: true,
			lastHB:  0, // long silent
		}
	}

	n.monitorTick(rt) // old code: nil-pointer panic on idB

	if !completed {
		t.Fatal("interleaving not exercised: no EvRunFailureDetected for idA")
	}
	if _, ok := n.owned[idB]; ok {
		t.Fatal("completed job still owned")
	}
}

// TestHeartbeatDropsExcludedRunNode covers the stale-heartbeat race:
// while a job is mid-rematch (matched=false), the excluded old run
// node's heartbeat must not refresh lastHB and must be answered with a
// drop instruction — otherwise the job executes twice once the rematch
// lands.
func TestHeartbeatDropsExcludedRunNode(t *testing.T) {
	id := ids.HashString("job")
	n, _ := newStubNode(nil, Config{})
	staleHB := 5 * time.Second
	n.owned[id] = &ownedJob{
		prof:     Profile{ID: id, Client: "client"},
		matched:  false,
		matching: true,
		excluded: []transport.Addr{"old-run"},
		lastHB:   staleHB,
	}
	rt := &stubRT{now: 20 * time.Second, rng: rand.New(rand.NewSource(2))}

	raw, err := n.handleHeartbeat(rt, "old-run", HeartbeatReq{Run: "old-run", Jobs: []ids.ID{id}})
	if err != nil {
		t.Fatalf("handleHeartbeat: %v", err)
	}
	resp := raw.(HeartbeatResp)
	if len(resp.Drop) != 1 || resp.Drop[0] != id {
		t.Fatalf("excluded run node not told to drop: %+v", resp)
	}
	if got := n.owned[id].lastHB; got != staleHB {
		t.Fatalf("excluded heartbeat refreshed lastHB: %v", got)
	}

	// A fresh (non-excluded) run node's heartbeat still refreshes.
	raw, err = n.handleHeartbeat(rt, "new-run", HeartbeatReq{Run: "new-run", Jobs: []ids.ID{id}})
	if err != nil {
		t.Fatalf("handleHeartbeat: %v", err)
	}
	if resp := raw.(HeartbeatResp); len(resp.Drop) != 0 {
		t.Fatalf("fresh run node told to drop: %+v", resp)
	}
	if got := n.owned[id].lastHB; got != rt.now {
		t.Fatalf("fresh heartbeat did not refresh lastHB: %v", got)
	}
}

// TestRelayAttemptsBounded covers the relay leak: when the client
// never comes back, the owner must stop retrying after ResultRetries
// attempts, free the owned entry, and record EvGaveUp.
func TestRelayAttemptsBounded(t *testing.T) {
	id := ids.HashString("job")
	var gaveUp int
	rec := RecorderFunc(func(ev Event) {
		if ev.Kind == EvGaveUp && ev.JobID == id {
			gaveUp++
		}
	})
	cfg := Config{ResultRetries: 3}
	n, _ := newStubNode(rec, cfg)
	res := Result{JobID: id, RunNode: "run"}
	n.owned[id] = &ownedJob{prof: Profile{ID: id, Client: "client"}, relay: &res}
	rt := &stubRT{rng: rand.New(rand.NewSource(3))}
	rt.call = func(transport.Addr, string, any) (any, error) { return nil, transport.ErrTimeout }

	for i := 0; i < 10; i++ {
		n.monitorTick(rt)
		rt.now += time.Second
	}
	if _, ok := n.owned[id]; ok {
		t.Fatal("owned entry leaked after relay retries exhausted")
	}
	if gaveUp != 1 {
		t.Fatalf("EvGaveUp recorded %d times, want 1", gaveUp)
	}

	// A reachable client still gets the relayed result before the cap.
	id2 := ids.HashString("job2")
	res2 := Result{JobID: id2, RunNode: "run"}
	n.owned[id2] = &ownedJob{prof: Profile{ID: id2, Client: "client"}, relay: &res2}
	delivered := 0
	rt.call = func(to transport.Addr, method string, req any) (any, error) {
		if method == MResult {
			delivered++
			return ResultResp{}, nil
		}
		return nil, transport.ErrTimeout
	}
	n.monitorTick(rt)
	if delivered != 1 {
		t.Fatalf("relay delivered %d results, want 1", delivered)
	}
	if _, ok := n.owned[id2]; ok {
		t.Fatal("owned entry kept after successful relay")
	}
}
