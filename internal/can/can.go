package can

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/resource"
	"repro/internal/transport"
)

// Ref identifies a CAN node; the ID (hash of the address) breaks ties
// deterministically during takeover races.
type Ref struct {
	ID   ids.ID
	Addr transport.Addr
}

// IsZero reports whether the Ref names no node.
func (r Ref) IsZero() bool { return r.Addr == "" }

func (r Ref) String() string {
	if r.IsZero() {
		return "<none>"
	}
	return fmt.Sprintf("%s@%s", r.ID.Short(), r.Addr)
}

// Errors returned by routing and matchmaking.
var (
	ErrRouteFailed = errors.New("can: route failed")
	ErrNoCandidate = errors.New("can: no satisfying node found")
	ErrNotJoined   = errors.New("can: node has not joined")
)

// Fixed protocol periods and bounds.
const (
	gossipEvery   = time.Second     // neighbor state-exchange period
	neighborTTL   = 4 * time.Second // expires silent neighbors
	takeoverAfter = 2 * time.Second // extra delay before claiming a dead neighbor's zones
	maxRouteHops  = 64              // aborts runaway greedy routes
	pushTTL       = 8               // bounds load-based pushing (the improved variant)
	// pushThreshold is the queue length above which an owner considers
	// pushing an incoming job upward.
	pushThreshold = 2
)

// Config tunes a CAN node. The zero value selects the defaults.
type Config struct {
	// DisableVirtualDim turns off the virtual dimension (node and job
	// points normally get a uniformly random final coordinate). It is
	// the ablation switch for the paper's clustering pathology.
	DisableVirtualDim bool
	// MatchTTL bounds the upward forwarding walk when the owner
	// neighborhood cannot satisfy a job (default 16).
	MatchTTL int
	// Obs, when non-nil, receives routing and matchmaking metrics.
	// Purely observational: no routing decision reads it.
	Obs *obs.Obs
}

func (c Config) withDefaults() Config {
	if c.MatchTTL == 0 {
		c.MatchTTL = 16
	}
	return c
}

// Info is the self-description a node shares with neighbors.
type Info struct {
	Ref   Ref
	Zones []Zone
	Point Point
	Caps  resource.Vector
	OS    string
	Load  int
	// Above and Below are the node's aggregated directional load
	// estimates per dimension, consumed by the pushing variant.
	Above, Below [Dims]float64
}

// Brief is the compact neighbor digest piggybacked on gossip so
// two-hop topology changes (takeovers, joins) propagate.
type Brief struct {
	Ref   Ref
	Zones []Zone
}

// RPC message types.
type (
	// StepReq asks for one greedy routing step toward Target; Exclude
	// lists nodes the route has already visited, letting the walk step
	// sideways around coverage holes without cycling.
	StepReq struct {
		Target  Point
		Exclude []transport.Addr
	}
	// StepResp terminates (Done, Owner) or forwards (Next).
	StepResp struct {
		Done  bool
		Owner Ref
		Next  Ref
	}
	// JoinReq asks the owner of Point to split its zone with the joiner.
	JoinReq struct{ Joiner Info }
	// JoinResp assigns the joiner its zone and starter neighbor set.
	JoinResp struct {
		Zone      Zone
		Neighbors []Info
	}
	// GossipReq is the periodic neighbor state exchange.
	GossipReq struct {
		From   Info
		Digest []Brief
	}
	// GossipResp returns the receiver's state.
	GossipResp struct{ From Info }
	// MatchReq runs owner-side matchmaking at the receiver.
	MatchReq struct {
		Cons    resource.Constraints
		Exclude []transport.Addr
		// Visited lists nodes already examined by the feasible-region
		// search; TTL is the remaining visit budget.
		Visited []transport.Addr
		TTL     int
		PushTTL int
		Push    bool
	}
	// LoadReq probes a node's live queue length.
	LoadReq struct{}
	// LoadResp answers a LoadReq.
	LoadResp struct{ Load int }
	// MatchResp carries the chosen run node and accounting. Visited is
	// the cumulative set examined by the feasible-region search, so the
	// caller can continue without re-visiting.
	MatchResp struct {
		Run     Ref
		RunOS   string
		Load    int
		Hops    int
		Pushes  int
		Found   bool
		Visited []transport.Addr
	}
)

// Method names registered on the host.
const (
	MStep   = "can.step"
	MJoin   = "can.join"
	MGossip = "can.gossip"
	MMatch  = "can.match"
	MLoad   = "can.load"
)

type neighbor struct {
	info     Info
	digest   []Brief
	lastSeen time.Duration
	// claimed marks a dead neighbor whose zones we decided to take
	// over, pending the claim actually being installed.
	dead time.Duration
}

// Node is one CAN participant.
type Node struct {
	host transport.Host
	cfg  Config
	ref  Ref
	caps resource.Vector
	os   string

	mu        sync.Mutex
	point     Point
	zones     []Zone
	neighbors map[transport.Addr]*neighbor
	loadFn    func() int
	joined    bool
	started   bool
	above     [Dims]float64
	below     [Dims]float64

	// Routes counts completed local routes; RouteHops sums their hops.
	Routes    int64
	RouteHops int64

	// Resolved obs instruments (nil-safe when cfg.Obs is nil).
	mRoutes      *obs.Counter
	mRouteFails  *obs.Counter
	mRouteHops   *obs.Histogram
	mMatches     *obs.Counter
	mMatchFails  *obs.Counter
	mMatchHops   *obs.Histogram
	mMatchPushes *obs.Histogram
	mMatchVisits *obs.Histogram
}

// New creates a CAN node bound to host, advertising the given
// capabilities, and registers its RPC handlers.
func New(host transport.Host, caps resource.Vector, os string, cfg Config) *Node {
	cfg = cfg.withDefaults()
	n := &Node{
		host:      host,
		cfg:       cfg,
		ref:       Ref{ID: ids.HashString(string(host.Addr())), Addr: host.Addr()},
		caps:      caps,
		os:        os,
		neighbors: make(map[transport.Addr]*neighbor),
		loadFn:    func() int { return 0 },
	}
	if reg := cfg.Obs.Registry(); reg != nil {
		n.mRoutes = reg.Counter("can_routes_total")
		n.mRouteFails = reg.Counter("can_route_failures_total")
		n.mRouteHops = reg.Histogram("can_route_hops", obs.DefBucketsHops)
		n.mMatches = reg.Counter("can_matches_total")
		n.mMatchFails = reg.Counter("can_match_failures_total")
		n.mMatchHops = reg.Histogram("can_match_hops", obs.DefBucketsHops)
		n.mMatchPushes = reg.Histogram("can_match_pushes", obs.DefBucketsHops)
		n.mMatchVisits = reg.Histogram("can_match_visits", obs.DefBucketsHops)
	}
	host.Handle(MStep, n.handleStep)
	host.Handle(MJoin, n.handleJoin)
	host.Handle(MGossip, n.handleGossip)
	host.Handle(MMatch, n.handleMatch)
	host.Handle(MLoad, n.handleLoad)
	return n
}

// Ref returns the node's identity.
func (n *Node) Ref() Ref { return n.ref }

// Caps returns the node's capability vector.
func (n *Node) Caps() resource.Vector { return n.caps }

// OS returns the node's operating system label.
func (n *Node) OS() string { return n.os }

// Point returns the node's representative point.
func (n *Node) Point() Point {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.point
}

// Zones returns a copy of the node's current zones.
func (n *Node) Zones() []Zone {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]Zone, len(n.zones))
	copy(out, n.zones)
	return out
}

// Neighbors returns the addresses of current neighbors, sorted.
func (n *Node) Neighbors() []transport.Addr {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.sortedNeighborAddrsLocked()
}

func (n *Node) sortedNeighborAddrsLocked() []transport.Addr {
	out := make([]transport.Addr, 0, len(n.neighbors))
	for a := range n.neighbors {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SetLoadFn installs the queue-length provider.
func (n *Node) SetLoadFn(fn func() int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.loadFn = fn
}

// info snapshots the node's self-description.
func (n *Node) info() Info {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.infoLocked()
}

func (n *Node) infoLocked() Info {
	zones := make([]Zone, len(n.zones))
	copy(zones, n.zones)
	return Info{
		Ref:   n.ref,
		Zones: zones,
		Point: n.point,
		Caps:  n.caps,
		OS:    n.os,
		Load:  n.loadFn(),
		Above: n.above,
		Below: n.below,
	}
}

// uniformFromID maps an identifier to a uniform value in [0,1) —
// deterministic randomness for virtual coordinates, so node and job
// placement is reproducible and independent of message ordering.
func uniformFromID(id ids.ID) float64 {
	return float64(id.Uint64()>>11) / float64(uint64(1)<<53)
}

// pointFor derives this node's representative point. The virtual
// coordinate is a uniform hash of the node identity (or zero when the
// virtual dimension is disabled — the ablation case).
func (n *Node) pointFor() Point {
	virtual := 0.0
	if !n.cfg.DisableVirtualDim {
		virtual = uniformFromID(ids.HashString(string(n.host.Addr()) + "#virtual"))
	}
	return PointFor(resource.DefaultSpace, n.caps, virtual)
}

// JobPoint maps a job's constraints to its insertion point: its
// requirement minima in the resource dimensions plus a virtual
// coordinate hashed from the job's GUID.
func (n *Node) JobPoint(jobID ids.ID, cons resource.Constraints) Point {
	virtual := 0.0
	if !n.cfg.DisableVirtualDim {
		virtual = uniformFromID(jobID)
	}
	return PointFor(resource.DefaultSpace, cons.Effective(), virtual)
}

// Create initializes this node as the first member, owning the whole
// space.
func (n *Node) Create() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.point = n.pointFor()
	n.zones = []Zone{UnitZone()}
	n.joined = true
}

// Start launches the gossip/maintenance loop.
func (n *Node) Start() {
	n.mu.Lock()
	if n.started {
		n.mu.Unlock()
		return
	}
	n.started = true
	n.mu.Unlock()
	n.host.Go("can.gossip", n.gossipLoop)
}
