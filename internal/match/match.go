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
	"sort"
	"sync"

	"repro/internal/can"
	"repro/internal/chord"
	"repro/internal/grid"
	"repro/internal/ids"
	"repro/internal/resource"
	"repro/internal/rntree"
	"repro/internal/transport"
)

// --- RN-Tree ---

// RNTree adapts an rntree.Node to grid.Matchmaker.
type RNTree struct {
	RN *rntree.Node
}

// FindRunNode implements grid.Matchmaker: search the tree for its
// extended-search target of candidates and pick the least loaded that
// is not excluded.
func (m *RNTree) FindRunNode(rt transport.Runtime, cons resource.Constraints, exclude []transport.Addr) (transport.Addr, grid.MatchStats, error) {
	cands, st, err := m.RN.FindCandidates(rt, cons, m.RN.K()+len(exclude))
	stats := grid.MatchStats{
		Hops:        st.RPCs,
		Visits:      st.Visits,
		Escalations: st.Escalations,
		WalkHops:    st.WalkHops,
	}
	if err != nil {
		return "", stats, err
	}
	best := rntree.Candidate{}
	found := false
	for _, c := range cands {
		if addrIn(exclude, c.Ref.Addr) {
			continue
		}
		if !found || c.Load < best.Load || (c.Load == best.Load && c.Ref.Addr < best.Ref.Addr) {
			best, found = c, true
		}
	}
	if !found {
		return "", stats, fmt.Errorf("rntree: all %d candidates excluded", len(cands))
	}
	return best.Ref.Addr, stats, nil
}

// --- CAN ---

// CAN adapts a can.Node to grid.Matchmaker. Push selects the improved
// load-pushing variant.
type CAN struct {
	CN   *can.Node
	Push bool
}

// FindRunNode implements grid.Matchmaker.
func (m *CAN) FindRunNode(rt transport.Runtime, cons resource.Constraints, exclude []transport.Addr) (transport.Addr, grid.MatchStats, error) {
	run, st, err := m.CN.FindRunNode(rt, cons, exclude, m.Push)
	stats := grid.MatchStats{Hops: st.Hops, Pushes: st.Pushes, Visits: st.Visits}
	if err != nil {
		return "", stats, err
	}
	return run.Addr, stats, nil
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

// FindRunNode implements grid.Matchmaker: scan the global view for the
// least-loaded live nodes satisfying the constraints, breaking ties
// uniformly at random (deterministic tie-breaking would pile work onto
// the alphabetically-first idle node).
func (m *Central) FindRunNode(rt transport.Runtime, cons resource.Constraints, exclude []transport.Addr) (transport.Addr, grid.MatchStats, error) {
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
		return "", grid.MatchStats{}, fmt.Errorf("central: no satisfying node for %s", cons)
	}
	return best[rt.Rand().Intn(len(best))], grid.MatchStats{}, nil
}

// --- overlays ---

// ChordOverlay routes jobs by GUID through Chord; with Walk set it
// appends the RN-Tree's limited random walk after the initial mapping,
// exactly as Section 3.1 describes.
type ChordOverlay struct {
	Chord *chord.Node
	Walk  *rntree.Node
}

// RouteJob implements grid.Overlay.
func (o *ChordOverlay) RouteJob(rt transport.Runtime, jobID ids.ID, cons resource.Constraints) (transport.Addr, int, error) {
	owner, hops, err := o.Chord.Lookup(rt, jobID)
	if err != nil {
		return "", hops, err
	}
	if o.Walk != nil {
		end, walkHops := o.Walk.RandomWalkFrom(rt, owner)
		return end.Addr, hops + walkHops, nil
	}
	return owner.Addr, hops, nil
}

// CANOverlay routes jobs to the zone containing their requirement
// coordinates (plus virtual coordinate).
type CANOverlay struct {
	CAN *can.Node
}

// RouteJob implements grid.Overlay.
func (o *CANOverlay) RouteJob(rt transport.Runtime, jobID ids.ID, cons resource.Constraints) (transport.Addr, int, error) {
	pt := o.CAN.JobPoint(jobID, cons)
	owner, hops, err := o.CAN.Route(rt, pt)
	if err != nil {
		return "", hops, err
	}
	return owner.Addr, hops, nil
}

// StaticOverlay routes every job to one fixed owner (unit tests and
// single-server deployments).
type StaticOverlay struct {
	Owner transport.Addr
}

// RouteJob implements grid.Overlay.
func (o *StaticOverlay) RouteJob(transport.Runtime, ids.ID, resource.Constraints) (transport.Addr, int, error) {
	return o.Owner, 0, nil
}

func addrIn(list []transport.Addr, a transport.Addr) bool {
	for _, x := range list {
		if x == a {
			return true
		}
	}
	return false
}
