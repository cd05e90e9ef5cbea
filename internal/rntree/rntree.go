// Package rntree implements the Rendezvous Node Tree — the paper's
// matchmaking data structure layered over Chord (Section 3.1). Every
// node determines its parent from purely local information, subtree
// resource summaries are aggregated up the tree periodically, and job
// placement searches the tree with pruning, escalating to ancestors
// only when the local subtree has no satisfactory candidate, collecting
// at least k candidates ("extended search") for load balancing. Every
// search reply names the responder's parent, so an escalating search
// climbs by those replies and never asks a node for its parent.
//
// Parent rule (reconstructed; see DESIGN.md): take the m-bit prefix of
// the node's GUID and clear its lowest set bit; the parent is the Chord
// owner of the resulting identifier. Random prefixes give a
// binomial-tree shape of expected height O(log N); the owner of prefix
// zero is the root.
package rntree

import (
	"errors"
	"fmt"
	"iter"
	"maps"
	"slices"
	"sync"
	"time"

	"repro/internal/chord"
	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/resource"
	"repro/internal/transport"
)

// Fixed tree and search sizes.
const (
	// prefixBits is m, the GUID prefix width the parent rule operates
	// on. 2^m must comfortably exceed the node count.
	prefixBits = 24
	// randomWalkLen is the limited random walk applied after the
	// initial DHT mapping of a job to its owner.
	randomWalkLen = 3
	// maxWalkBatch caps the draws one rnt.walk call may ask for. The
	// count comes off the wire, so the handler refuses more rather than
	// allocate what a peer asks for; a walker splits a larger group.
	maxWalkBatch = 256
	// maxVisits bounds the number of nodes one search may touch.
	maxVisits = 64
)

// Config tunes the RN-Tree. The zero value selects the defaults.
type Config struct {
	// AggregateEvery is the period of child->parent summary pushes
	// (default 2 s). Children that stop reporting for 3x this expire.
	AggregateEvery time.Duration
	// K is the extended-search candidate target (default 4).
	K int
	// ParentRefreshEvery is how often the parent is recomputed from
	// Chord ownership even when nothing prompted it (default 15 s). It
	// is a safety net only: a change of this node's ring neighbourhood
	// recomputes the parent at once, so the refresh matters only for a
	// change far along the ring that moves the owner of the parent
	// identifier without touching this node's neighbours.
	ParentRefreshEvery time.Duration
	// Obs, when non-nil, receives search metrics (visit/escalation/walk
	// histograms and counters). Purely observational: no search decision
	// reads it.
	Obs *obs.Obs
}

func (c Config) withDefaults() Config {
	if c.AggregateEvery == 0 {
		c.AggregateEvery = 2 * time.Second
	}
	if c.K == 0 {
		c.K = 4
	}
	if c.ParentRefreshEvery == 0 {
		c.ParentRefreshEvery = 15 * time.Second
	}
	return c
}

// ErrNoCandidate reports a search that reached the root without finding
// any node satisfying the constraints.
var ErrNoCandidate = errors.New("rntree: no satisfying node found")

// Summary aggregates a subtree's resources: the elementwise maximum
// capability vector, the minimum queue length, the node count, and the
// set of operating systems present.
type Summary struct {
	MaxCaps resource.Vector
	MinLoad int
	Nodes   int
	OSes    []string
}

// merge folds o into s.
func (s Summary) merge(o Summary) Summary {
	s.MaxCaps = s.MaxCaps.Max(o.MaxCaps)
	if o.MinLoad < s.MinLoad {
		s.MinLoad = o.MinLoad
	}
	s.Nodes += o.Nodes
	s.OSes = mergeOSes(s.OSes, o.OSes)
	return s
}

func mergeOSes(a, b []string) []string {
	out := slices.Concat(a, b)
	slices.Sort(out)
	return slices.Compact(out)
}

// mightSatisfy reports whether some node in the summarized subtree
// could satisfy the constraints — the search pruning test.
func (s Summary) mightSatisfy(c resource.Constraints) bool {
	if c.OS != "" && !slices.Contains(s.OSes, c.OS) {
		return false
	}
	for i, m := range c.Mask {
		if m && s.MaxCaps[i] < c.Min[i] {
			return false
		}
	}
	return true
}

// sameAdvert reports whether a and b prune a search alike: MaxCaps and
// OSes are the fields mightSatisfy reads. MinLoad and Nodes inform no
// decision, so a change in them alone is not pushed early.
func sameAdvert(a, b Summary) bool {
	return a.MaxCaps == b.MaxCaps && slices.Equal(a.OSes, b.OSes)
}

// Candidate is one capable node discovered by a search, with the queue
// length it reported.
type Candidate struct {
	Ref  chord.Ref
	Load int
}

// SearchStats quantifies one matchmaking search.
type SearchStats struct {
	Visits      int // nodes whose state was examined
	RPCs        int // overlay messages exchanged
	Escalations int // ancestor levels climbed
	WalkHops    int // random-walk hops before the search
}

// RPC message types.
type (
	// UpdateReq is the periodic child->parent aggregation push.
	UpdateReq struct {
		Child chord.Ref
		Sum   Summary
	}
	// UpdateResp acknowledges an UpdateReq.
	UpdateResp struct{}
	// SearchReq asks a node to search its subtree for candidates.
	SearchReq struct {
		Cons    resource.Constraints
		K       int
		Exclude transport.Addr // child subtree to skip (ancestor search)
		Budget  int            // remaining visit budget, at most maxVisits
	}
	// SearchResp returns discovered candidates and accounting, and the
	// responder's parent (zero at the root): the next ancestor an
	// escalating search asks.
	SearchResp struct {
		Cands  []Candidate
		Visits int
		RPCs   int
		Parent chord.Ref
	}
	// WalkReq asks a node for N random overlay neighbours, drawn
	// independently: the next steps of N walks that reached it. N is 1
	// to maxWalkBatch.
	WalkReq struct{ N int }
	// WalkResp names them, positionally (a zero entry when the node
	// has no neighbours).
	WalkResp struct{ Next []chord.Ref }
)

// Method names registered on the host.
const (
	MUpdate = "rnt.update"
	MSearch = "rnt.search"
	MWalk   = "rnt.walk"
)

// childEntry is a child's last report. An entry is replaced, never
// changed, so a pointer to one may be read after the lock is released.
type childEntry struct {
	ref      chord.Ref
	sum      Summary
	lastSeen time.Duration
}

// Node is one RN-Tree participant, layered over a Chord node on the
// same host.
type Node struct {
	host  transport.Host
	chord *chord.Node
	cfg   Config
	caps  resource.Vector
	os    string

	mu       sync.Mutex
	parent   chord.Ref
	isRoot   bool
	children map[transport.Addr]*childEntry
	loadFn   func() int
	started  bool
	attached transport.Cond // on mu; broadcast when a parent is set or a child reports
	// stale and dirty are the aggregation loop's two prompts, each
	// broadcast on kick: the ring around this node changed, so the
	// parent may have; a child is new or its summary changed in a field
	// a search prunes on, so the parent's view of this subtree is out of
	// date.
	stale, dirty bool
	kick         transport.Cond // on mu

	// Resolved obs instruments (nil-safe when cfg.Obs is nil).
	mSearches    *obs.Counter
	mNoCandidate *obs.Counter
	mVisits      *obs.Histogram
	mEscalations *obs.Histogram
	mWalkHops    *obs.Histogram
}

// New creates an RN-Tree node over ch, advertising the given
// capabilities, and registers its RPC handlers on host.
func New(host transport.Host, ch *chord.Node, caps resource.Vector, os string, cfg Config) *Node {
	n := &Node{
		host:     host,
		chord:    ch,
		cfg:      cfg.withDefaults(),
		caps:     caps,
		os:       os,
		children: make(map[transport.Addr]*childEntry),
		loadFn:   func() int { return 0 },
	}
	n.attached.L = &n.mu
	n.kick.L = &n.mu
	ch.OnRingChange(n.ringChanged)
	if reg := n.cfg.Obs.Registry(); reg != nil {
		n.mSearches = reg.Counter("rntree_searches_total")
		n.mNoCandidate = reg.Counter("rntree_search_no_candidate_total")
		n.mVisits = reg.Histogram("rntree_search_visits", obs.DefBucketsHops)
		n.mEscalations = reg.Histogram("rntree_search_escalations", obs.DefBucketsHops)
		n.mWalkHops = reg.Histogram("rntree_walk_hops", obs.DefBucketsHops)
	}
	host.Handle(MUpdate, n.handleUpdate)
	host.Handle(MSearch, n.handleSearch)
	host.Handle(MWalk, n.handleWalk)
	return n
}

// SetLoadFn installs the queue-length provider (the grid layer's run
// queue). It must be safe to call from handler contexts.
func (n *Node) SetLoadFn(fn func() int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.loadFn = fn
}

// Caps returns the node's capability vector.
func (n *Node) Caps() resource.Vector { return n.caps }

// OS returns the node's operating system label.
func (n *Node) OS() string { return n.os }

// K returns the extended-search candidate target (Config.K).
func (n *Node) K() int { return n.cfg.K }

// Parent returns the current parent (zero for the root).
func (n *Node) Parent() chord.Ref {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.parent
}

// Children returns the addresses of the current children, sorted.
func (n *Node) Children() []transport.Addr {
	n.mu.Lock()
	defer n.mu.Unlock()
	return slices.Sorted(maps.Keys(n.children))
}

// AwaitAttached parks until the tree has placed this node (a parent is
// set or, at the root, a child has reported) or max passes; true if placed.
func (n *Node) AwaitAttached(rt transport.Runtime, max time.Duration) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	for deadline := rt.Now() + max; ; rt.Wait(&n.attached, deadline-rt.Now()) {
		attached := !n.parent.IsZero() || len(n.children) > 0
		if attached || rt.Now() >= deadline {
			return attached
		}
	}
}

// Start launches the aggregation loop.
func (n *Node) Start() {
	n.mu.Lock()
	if n.started {
		n.mu.Unlock()
		return
	}
	n.started = true
	n.mu.Unlock()
	n.host.Go("rnt.aggregate", n.aggregateLoop)
}

// localSummary folds the node's own state with its live children.
func (n *Node) localSummary(now time.Duration) Summary {
	n.mu.Lock()
	defer n.mu.Unlock()
	sum := Summary{MaxCaps: n.caps, MinLoad: n.loadFn(), Nodes: 1, OSes: []string{n.os}}
	for addr, c := range n.children {
		if now-c.lastSeen > 3*n.cfg.AggregateEvery {
			delete(n.children, addr)
			continue
		}
		sum = sum.merge(c.sum)
	}
	return sum
}

// ringChanged is the chord ring-change hook: the parent rule reads the
// ring, so the parent is recomputed at once.
func (n *Node) ringChanged() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stale = true
	n.kick.Broadcast()
}

// aggregateLoop pushes the subtree summary to the parent once per
// jittered period, recomputing the parent from Chord ownership every
// ParentRefreshEvery (or after a push failure, which usually signals
// churn). Two prompts act before the period ends: a ring change
// recomputes the parent, and a changed subtree summary is pushed, so a
// summary climbs the tree in round trips, not periods. An unplaced node
// computes its first parent at once; a placed one (warm-started) waits
// its first period as before.
func (n *Node) aggregateLoop(rt transport.Runtime) {
	var lastRefresh time.Duration = -1
	n.mu.Lock()
	wait := !n.parent.IsZero() || n.isRoot // placed
	n.mu.Unlock()
	for ; ; wait = true {
		stale, dirty, timed := n.awaitPrompt(rt, wait)
		n.mu.Lock()
		parent := n.parent
		isRoot := n.isRoot
		n.mu.Unlock()
		moved := false
		if stale || (parent.IsZero() && !isRoot) || rt.Now()-lastRefresh > n.cfg.ParentRefreshEvery {
			p, err := n.computeParent(rt)
			if err != nil {
				lastRefresh = -1 // retry at the end of the next period
				continue
			}
			lastRefresh = rt.Now()
			n.mu.Lock()
			moved = p != n.parent
			n.parent = p
			n.isRoot = p.IsZero()
			parent, isRoot = p, n.isRoot
			n.mu.Unlock()
			n.attached.Broadcast()
		}
		// Fold before the root's early exit: folding is what expires
		// silent children, and the root has children too.
		sum := n.localSummary(rt.Now())
		if isRoot || parent.IsZero() || !(timed || dirty || moved) {
			continue
		}
		if _, err := rt.Call(parent.Addr, MUpdate, UpdateReq{Child: n.chord.Ref(), Sum: sum}); err != nil {
			// Parent unreachable: force recompute.
			n.mu.Lock()
			n.parent = chord.Ref{}
			n.isRoot = false
			n.mu.Unlock()
			lastRefresh = -1
		}
	}
}

// awaitPrompt parks, if wait is set, until a jittered aggregation
// period ends or a prompt (stale or dirty) arrives, and consumes the
// prompts. timed reports that the period ended. The lock is released
// by defer: a crashed host's proc unwinds through the wait (DESIGN.md
// §16).
func (n *Node) awaitPrompt(rt transport.Runtime, wait bool) (stale, dirty, timed bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if wait {
		deadline := rt.Now() + transport.Jitter(rt, n.cfg.AggregateEvery)
		for !n.stale && !n.dirty && rt.Now() < deadline {
			rt.Wait(&n.kick, deadline-rt.Now())
		}
		timed = rt.Now() >= deadline
	}
	stale, dirty = n.stale, n.dirty
	n.stale, n.dirty = false, false
	return stale, dirty, timed
}

// ancestorIDs lists the identifiers the parent rule tries for the node
// whose GUID is id, nearest first: the m-bit prefix with its lowest set
// bit cleared, repeatedly, down to 0 (only 0 when the prefix is 0). The
// parent is the owner of the first one the node does not own itself; a
// node that owns them all is the root.
func ancestorIDs(id ids.ID) iter.Seq[ids.ID] {
	return func(yield func(ids.ID) bool) {
		for p := id.Prefix(prefixBits); ; {
			p = ids.ClearLowestSetBit(p)
			if !yield(ids.FromPrefix(p, prefixBits)) || p == 0 {
				return
			}
		}
	}
}

// computeParent applies the parent rule through Chord lookups. A zero
// return means this node is the root.
func (n *Node) computeParent(rt transport.Runtime) (chord.Ref, error) {
	for key := range ancestorIDs(n.chord.ID()) {
		owner, _, err := n.chord.Lookup(rt, key)
		if err != nil {
			return chord.Ref{}, err
		}
		if owner.ID != n.chord.ID() {
			return owner, nil
		}
	}
	return chord.Ref{}, nil
}

// RandomWalks performs the limited random walk the paper applies after
// the initial DHT mapping, for a batch of jobs at once: ends[i] is where
// matchmaking for the job mapped to starts[i] should start, and hops[i]
// is how many steps its walk took. The walks advance together in
// randomWalkLen rounds. Each round groups the jobs still walking by
// their current node, in address order: this node draws its own
// group's steps from its routing state in job order, and every other
// node gets one rnt.walk call asking for as many independent draws
// from its own (more than maxWalkBatch split over several calls). A
// batch of one sends the calls of a single walk, in the same order.
// A node that does not answer ends each walk of its group at that
// walk's own previous hop: a departed peer lingers in its neighbours'
// tables for a while, and a walk that ended on it would hand its job
// to a peer that is gone.
func (n *Node) RandomWalks(rt transport.Runtime, starts []chord.Ref) ([]chord.Ref, []int) {
	cur := slices.Clone(starts)
	prev := slices.Clone(starts)
	hops := make([]int, len(starts))
	walking := slices.Repeat([]bool{true}, len(starts))
	for round := 0; round < randomWalkLen; round++ {
		groups := make(map[transport.Addr][]int)
		for i, w := range walking {
			if w {
				groups[cur[i].Addr] = append(groups[cur[i].Addr], i)
			}
		}
		if len(groups) == 0 {
			break
		}
		addrs := make([]transport.Addr, 0, len(groups))
		for a := range groups {
			addrs = append(addrs, a)
		}
		slices.Sort(addrs)
		for _, addr := range addrs {
			group := groups[addr]
			for len(group) > 0 {
				part := group[:min(len(group), maxWalkBatch)]
				group = group[len(part):]
				steps, err := n.walkSteps(rt, addr, len(part))
				for k, i := range part {
					if err != nil || k >= len(steps) {
						cur[i], walking[i] = prev[i], false
						continue
					}
					hops[i]++
					if steps[k].IsZero() {
						walking[i] = false
						continue
					}
					prev[i], cur[i] = cur[i], steps[k]
				}
			}
		}
	}
	for _, h := range hops {
		n.mWalkHops.Observe(float64(h))
	}
	return cur, hops
}

// walkSteps draws count next steps at addr: from this node's own
// routing state, or by one rnt.walk call to that node.
func (n *Node) walkSteps(rt transport.Runtime, addr transport.Addr, count int) ([]chord.Ref, error) {
	if addr == n.host.Addr() {
		return n.randomNeighbors(rt, count), nil
	}
	raw, err := rt.Call(addr, MWalk, WalkReq{N: count})
	if err != nil {
		return nil, err
	}
	return raw.(WalkResp).Next, nil
}

// randomNeighbors draws count entries from the Chord routing state,
// each uniformly and independently (fingers spread across the ring make
// repeated steps mix fast). With no neighbours every draw is zero.
func (n *Node) randomNeighbors(rt transport.Runtime, count int) []chord.Ref {
	var buf [32]chord.Ref
	opts := n.chord.Neighbors(buf[:0])
	out := make([]chord.Ref, count)
	if len(opts) == 0 {
		return out
	}
	for i := range out {
		out[i] = opts[rt.Rand().Intn(len(opts))]
	}
	return out
}

// FindCandidates searches for nodes satisfying cons, starting from this
// node's subtree and escalating to ancestors while fewer than k
// candidates are known and the root has not been reached. The first
// ancestor is this node's cached parent (computed now if the node is
// unplaced); each ancestor's reply names the next. An ancestor that does
// not answer ends the escalation.
func (n *Node) FindCandidates(rt transport.Runtime, cons resource.Constraints, k int) ([]Candidate, SearchStats, error) {
	if k <= 0 {
		k = n.cfg.K
	}
	var stats SearchStats
	budget := maxVisits

	resp := n.searchSubtree(rt, SearchReq{Cons: cons, K: k, Budget: budget})
	cands := resp.Cands
	stats.Visits += resp.Visits
	stats.RPCs += resp.RPCs
	budget -= resp.Visits

	n.mu.Lock()
	parent, unplaced := n.parent, n.parent.IsZero() && !n.isRoot
	n.mu.Unlock()
	cur := n.host.Addr()
	for len(cands) < k && budget > 0 {
		if unplaced {
			var err error
			if parent, err = n.computeParent(rt); err != nil {
				break
			}
			unplaced = false
		}
		if parent.IsZero() {
			break
		}
		stats.Escalations++
		raw, err := rt.Call(parent.Addr, MSearch, SearchReq{
			Cons:    cons,
			K:       k - len(cands),
			Exclude: cur,
			Budget:  budget,
		})
		stats.RPCs++
		if err != nil {
			break
		}
		sr := raw.(SearchResp)
		cands = dedupCands(append(cands, sr.Cands...))
		stats.Visits += sr.Visits
		stats.RPCs += sr.RPCs
		budget -= sr.Visits
		cur, parent = parent.Addr, sr.Parent
	}
	n.mSearches.Inc()
	n.mVisits.Observe(float64(stats.Visits))
	n.mEscalations.Observe(float64(stats.Escalations))
	if len(cands) == 0 {
		n.mNoCandidate.Inc()
		return nil, stats, fmt.Errorf("%w: %s", ErrNoCandidate, cons)
	}
	return cands, stats, nil
}

// searchSubtree runs the subtree search rooted at this node: itself
// first, then children whose summaries pass the pruning test, depth
// first in deterministic order, until k candidates or the budget runs
// out.
func (n *Node) searchSubtree(rt transport.Runtime, req SearchReq) SearchResp {
	resp := SearchResp{Visits: 1}
	if req.Cons.SatisfiedBy(n.caps, n.os) {
		n.mu.Lock()
		load := n.loadFn()
		n.mu.Unlock()
		resp.Cands = append(resp.Cands, Candidate{Ref: n.chord.Ref(), Load: load})
	}
	budget := req.Budget - 1
	n.mu.Lock()
	var kids []*childEntry
	for _, addr := range slices.Sorted(maps.Keys(n.children)) {
		kids = append(kids, n.children[addr])
	}
	n.mu.Unlock()

	for _, c := range kids {
		if len(resp.Cands) >= req.K || budget <= 0 {
			break
		}
		if c.ref.Addr == req.Exclude || !c.sum.mightSatisfy(req.Cons) {
			continue
		}
		raw, err := rt.Call(c.ref.Addr, MSearch, SearchReq{
			Cons:   req.Cons,
			K:      req.K - len(resp.Cands),
			Budget: budget,
		})
		resp.RPCs++
		if err != nil {
			continue
		}
		sr := raw.(SearchResp)
		resp.Cands = dedupCands(append(resp.Cands, sr.Cands...))
		resp.Visits += sr.Visits
		resp.RPCs += sr.RPCs
		budget -= sr.Visits
	}
	return resp
}

func dedupCands(cands []Candidate) []Candidate {
	seen := make(map[transport.Addr]bool, len(cands))
	out := cands[:0]
	for _, c := range cands {
		if !seen[c.Ref.Addr] {
			seen[c.Ref.Addr] = true
			out = append(out, c)
		}
	}
	return out
}

// --- RPC handlers ---

func (n *Node) handleUpdate(rt transport.Runtime, from transport.Addr, req any) (any, error) {
	u := req.(UpdateReq)
	// Sanity: we should be the Chord owner of the child's parent
	// identifier; rather than recompute (expensive), accept and rely on
	// the child's own recomputation (on a ring change around it, or its
	// periodic refresh) to fix stale routing.
	n.mu.Lock()
	old, known := n.children[u.Child.Addr]
	n.children[u.Child.Addr] = &childEntry{ref: u.Child, sum: u.Sum, lastSeen: rt.Now()}
	if !known || !sameAdvert(old.sum, u.Sum) {
		// The parent's view of this subtree is out of date: push now.
		n.dirty = true
		n.kick.Broadcast()
	}
	n.mu.Unlock()
	n.attached.Broadcast()
	return UpdateResp{}, nil
}

// handleSearch searches this node's subtree and names its parent. The
// budget comes off the wire, so it is held to maxVisits.
func (n *Node) handleSearch(rt transport.Runtime, from transport.Addr, req any) (any, error) {
	r := req.(SearchReq)
	r.Budget = min(r.Budget, maxVisits)
	resp := n.searchSubtree(rt, r)
	resp.Parent = n.Parent()
	return resp, nil
}

// handleWalk answers N draws. N comes off the wire, so it is checked
// before anything is allocated for it.
func (n *Node) handleWalk(rt transport.Runtime, from transport.Addr, req any) (any, error) {
	count := req.(WalkReq).N
	if count < 1 || count > maxWalkBatch {
		return nil, fmt.Errorf("rntree: walk of %d draws, want 1 to %d", count, maxWalkBatch)
	}
	return WalkResp{Next: n.randomNeighbors(rt, count)}, nil
}
