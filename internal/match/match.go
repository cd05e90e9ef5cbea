// Package match provides the grid.Matchmaker and grid.Overlay
// implementations compared in the paper's evaluation:
//
//   - RNTree: matchmaking via the Rendezvous Node Tree over Chord
//     (Section 3.1), with the limited random walk and extended search.
//   - CAN and CANPush: matchmaking in the Content-Addressable Network
//     (Section 3.2), without and with load-based pushing.
//   - Central: the omniscient least-loaded baseline the paper uses as
//     its load-balance target.
//   - TTL: the related-work TTL-bounded search baseline that can miss
//     existing capable nodes.
package match

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/can"
	"repro/internal/chord"
	"repro/internal/grid"
	"repro/internal/resource"
	"repro/internal/rntree"
	"repro/internal/transport"
)

// --- RN-Tree ---

// RNTree adapts an rntree.Node to grid.Matchmaker.
type RNTree struct {
	RN *rntree.Node
}

// FindRunNodes implements grid.Matchmaker: search the tree for each
// job's extended-search target of candidates, the whole batch in one
// search (rntree.Node.FindCandidatesAll), and pick for each job in
// order the least loaded candidate that it does not exclude. A pick
// adds one to that candidate's load for the batch-mates after it:
// jobs that saw the same loads would otherwise all land on one node.
func (m *RNTree) FindRunNodes(rt transport.Runtime, reqs []grid.MatchReq) []grid.MatchResult {
	qs := make([]rntree.Query, len(reqs))
	for i, r := range reqs {
		qs[i] = rntree.Query{Cons: r.Cons, K: m.RN.K() + len(r.Exclude)}
	}
	results := make([]grid.MatchResult, len(reqs))
	picked := make(map[transport.Addr]int)
	for i, f := range m.RN.FindCandidatesAll(rt, qs) {
		res := &results[i]
		res.Stats = grid.MatchStats{
			Hops:        f.Stats.RPCs,
			Visits:      f.Stats.Visits,
			Escalations: f.Stats.Escalations,
			WalkHops:    f.Stats.WalkHops,
		}
		if f.Err != nil {
			res.Err = f.Err
			continue
		}
		best, bestLoad, found := transport.Addr(""), 0, false
		for _, c := range f.Cands {
			if addrIn(reqs[i].Exclude, c.Ref.Addr) {
				continue
			}
			load := c.Load + picked[c.Ref.Addr]
			if !found || load < bestLoad || (load == bestLoad && c.Ref.Addr < best) {
				best, bestLoad, found = c.Ref.Addr, load, true
			}
		}
		if !found {
			res.Err = fmt.Errorf("rntree: all %d candidates excluded", len(f.Cands))
			continue
		}
		picked[best]++
		res.Run = best
	}
	return results
}

// --- CAN ---

// CAN adapts a can.Node to grid.Matchmaker. Push selects the improved
// load-pushing variant.
type CAN struct {
	CN   *can.Node
	Push bool
}

// FindRunNodes implements grid.Matchmaker, one CAN match per job in
// job order.
func (m *CAN) FindRunNodes(rt transport.Runtime, reqs []grid.MatchReq) []grid.MatchResult {
	results := make([]grid.MatchResult, len(reqs))
	for i, r := range reqs {
		run, st, err := m.CN.FindRunNode(rt, r.Cons, r.Exclude, m.Push)
		results[i] = grid.MatchResult{Stats: grid.MatchStats{Hops: st.Hops, Pushes: st.Pushes, Visits: st.Visits}, Err: err}
		if err == nil {
			results[i].Run = run.Addr
		}
	}
	return results
}

// --- Centralized baseline ---

// Registry is the omniscient global view of node state that the
// centralized baseline consults. It stands in for the paper's
// "centralized scheme that uses knowledge of the status of all nodes
// and jobs", which "would be very expensive to implement in a
// decentralized P2P system".
type Registry struct {
	mu      sync.Mutex
	entries map[transport.Addr]*RegistryEntry
}

// RegistryEntry describes one node to the registry.
type RegistryEntry struct {
	Caps resource.Vector
	OS   string
	Load func() int
	Up   func() bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[transport.Addr]*RegistryEntry)}
}

// Register adds or replaces a node's entry.
func (r *Registry) Register(addr transport.Addr, e RegistryEntry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.entries[addr] = &e
}

// Snapshot returns the live entries, sorted by address.
func (r *Registry) Snapshot() []struct {
	Addr  transport.Addr
	Entry RegistryEntry
} {
	r.mu.Lock()
	defer r.mu.Unlock()
	addrs := make([]transport.Addr, 0, len(r.entries))
	for a := range r.entries {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	out := make([]struct {
		Addr  transport.Addr
		Entry RegistryEntry
	}, 0, len(addrs))
	for _, a := range addrs {
		out = append(out, struct {
			Addr  transport.Addr
			Entry RegistryEntry
		}{a, *r.entries[a]})
	}
	return out
}

// Central is the omniscient least-loaded matchmaker.
type Central struct {
	Reg *Registry
}

// FindRunNodes implements grid.Matchmaker: for each job in order, scan
// the global view for the least-loaded live nodes satisfying its
// constraints, breaking ties uniformly at random (deterministic
// tie-breaking would pile work onto the alphabetically-first idle
// node).
func (m *Central) FindRunNodes(rt transport.Runtime, reqs []grid.MatchReq) []grid.MatchResult {
	results := make([]grid.MatchResult, len(reqs))
	for i, r := range reqs {
		results[i].Run, results[i].Err = m.findRunNode(rt, r.Cons, r.Exclude)
	}
	return results
}

func (m *Central) findRunNode(rt transport.Runtime, cons resource.Constraints, exclude []transport.Addr) (transport.Addr, error) {
	var best []transport.Addr
	bestLoad := 0
	for _, e := range m.Reg.Snapshot() {
		if addrIn(exclude, e.Addr) || !e.Entry.Up() {
			continue
		}
		if !cons.SatisfiedBy(e.Entry.Caps, e.Entry.OS) {
			continue
		}
		load := e.Entry.Load()
		switch {
		case len(best) == 0 || load < bestLoad:
			best, bestLoad = []transport.Addr{e.Addr}, load
		case load == bestLoad:
			best = append(best, e.Addr)
		}
	}
	if len(best) == 0 {
		return "", fmt.Errorf("central: no satisfying node for %s", cons)
	}
	return best[rt.Rand().Intn(len(best))], nil
}

// --- overlays ---

// ChordOverlay routes jobs by GUID through Chord; with Walk set it
// appends the RN-Tree's limited random walk after the initial mapping,
// exactly as Section 3.1 describes. A batch's lookups run in job order,
// and then its walks run together (rntree.Node.RandomWalks).
type ChordOverlay struct {
	Chord *chord.Node
	Walk  *rntree.Node
}

// RouteJobs implements grid.Overlay.
func (o *ChordOverlay) RouteJobs(rt transport.Runtime, jobs []grid.Profile) []grid.Route {
	routes := make([]grid.Route, len(jobs))
	var starts []chord.Ref
	var walkers []int
	for i, job := range jobs {
		owner, hops, err := o.Chord.Lookup(rt, job.ID)
		routes[i] = grid.Route{Hops: hops, Err: err}
		if err != nil {
			continue
		}
		routes[i].Owner = owner.Addr
		starts = append(starts, owner)
		walkers = append(walkers, i)
	}
	if o.Walk == nil || len(starts) == 0 {
		return routes
	}
	ends, hops := o.Walk.RandomWalks(rt, starts)
	for k, i := range walkers {
		routes[i].Owner = ends[k].Addr
		routes[i].Hops += hops[k]
	}
	return routes
}

// CANOverlay routes jobs to the zone containing their requirement
// coordinates (plus virtual coordinate).
type CANOverlay struct {
	CAN *can.Node
}

// RouteJobs implements grid.Overlay, one route per job in job order.
func (o *CANOverlay) RouteJobs(rt transport.Runtime, jobs []grid.Profile) []grid.Route {
	routes := make([]grid.Route, len(jobs))
	for i, job := range jobs {
		owner, hops, err := o.CAN.Route(rt, o.CAN.JobPoint(job.ID, job.Cons))
		routes[i] = grid.Route{Hops: hops, Err: err}
		if err == nil {
			routes[i].Owner = owner.Addr
		}
	}
	return routes
}

// StaticOverlay routes every job to one fixed owner (unit tests and
// single-server deployments).
type StaticOverlay struct {
	Owner transport.Addr
}

// RouteJobs implements grid.Overlay.
func (o *StaticOverlay) RouteJobs(_ transport.Runtime, jobs []grid.Profile) []grid.Route {
	return slices.Repeat([]grid.Route{{Owner: o.Owner}}, len(jobs))
}

func addrIn(list []transport.Addr, a transport.Addr) bool {
	for _, x := range list {
		if x == a {
			return true
		}
	}
	return false
}
