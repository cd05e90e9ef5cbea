// Package chord implements the Chord distributed hash table (Stoica et
// al., SIGCOMM 2001): a ring of nodes ordered by 160-bit identifier,
// where the node owning key k is successor(k), the first node whose
// identifier is >= k on the ring. Lookups are iterative and route via
// finger tables in O(log N) hops; successor lists and periodic
// stabilization repair the ring under churn.
//
// The paper's desktop grid uses Chord both to map jobs to owner nodes
// (via GUID insertion) and as the substrate for the RN-Tree.
package chord

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/transport"
)

// Ref identifies a Chord node: its ring identifier and dialable address.
// The zero Ref is "no node".
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

// Fixed protocol sizes.
const (
	successorListLen = 8   // successors kept for fault tolerance
	fingersPerRound  = 8   // finger entries each repair round refreshes
	maxHops          = 120 // aborts runaway lookups
)

// Config tunes a Chord node. The zero value selects the defaults.
type Config struct {
	// StabilizeEvery is the period of the successor-repair loop
	// (default 500 ms).
	StabilizeEvery time.Duration
	// FixFingersEvery is the period of the finger-repair loop
	// (default 500 ms).
	FixFingersEvery time.Duration
	// CheckPredEvery is the period of the predecessor liveness check
	// (default 1 s).
	CheckPredEvery time.Duration
	// Obs, when non-nil, receives lookup metrics (hop histograms and
	// counters). Purely observational: no routing decision reads it.
	Obs *obs.Obs
}

func (c Config) withDefaults() Config {
	if c.StabilizeEvery == 0 {
		c.StabilizeEvery = 500 * time.Millisecond
	}
	if c.FixFingersEvery == 0 {
		c.FixFingersEvery = 500 * time.Millisecond
	}
	if c.CheckPredEvery == 0 {
		c.CheckPredEvery = time.Second
	}
	return c
}

// ErrLookupFailed reports a lookup that could not complete (all routes
// failed or the hop limit was exceeded).
var ErrLookupFailed = errors.New("chord: lookup failed")

// RPC message types. All fields are exported for gob encoding.
type (
	// StepReq asks a node to take one iterative-lookup step for Key.
	StepReq struct{ Key ids.ID }
	// StepResp either terminates the lookup (Done, with the Owner) or
	// names the Next node to ask.
	StepResp struct {
		Done  bool
		Owner Ref
		Next  Ref
	}
	// StateReq asks a node for its ring neighborhood.
	StateReq struct{}
	// StateResp carries a node's predecessor and successor list.
	StateResp struct {
		Self  Ref
		Pred  Ref
		Succs []Ref
	}
	// NotifyReq tells a node about a possible new predecessor.
	NotifyReq struct{ Cand Ref }
	// NotifyResp acknowledges a NotifyReq.
	NotifyResp struct{}
	// PingReq probes liveness.
	PingReq struct{}
	// PingResp answers a PingReq.
	PingResp struct{ Self Ref }
)

// Method names registered on the host.
const (
	MStep   = "chord.step"
	MState  = "chord.state"
	MNotify = "chord.notify"
	MPing   = "chord.ping"
)

// Node is one Chord participant. Create with New, then call Create (for
// the first node) or Join, then Start to launch maintenance loops.
//
// All state is guarded by mu; the lock is never held across an RPC.
type Node struct {
	host transport.Host
	id   ids.ID
	cfg  Config

	mu         sync.Mutex
	pred       Ref
	succs      []Ref // succs[0] is the immediate successor; never empty once created/joined
	fingers    [ids.Bits]Ref
	nextFinger int
	started    bool
	ringChange []func()
	ringCond   transport.Cond // on mu; broadcast by ringChanged and hintLocked
	// hinted is a successor hint (hintLocked): the stabilize loop runs
	// its next round at once instead of at the end of its period.
	hinted bool
	// relay is set by a refresh hint (a notify naming this node): the
	// successor's list gained a joiner, so the next round tells the
	// predecessor in turn if the list changed since it was last told
	// (untold).
	relay, untold bool
	// unrest counts ring changes and failed chord calls. A stabilize
	// period across which it did not move was calm (see calmRounds).
	unrest uint64
	// predCalled is when predCaller, the predecessor at the time, last
	// asked for our state: proof of life that spares a checkpred ping.
	predCaller transport.Addr
	predCalled time.Duration

	// Lookups counts completed local lookups; LookupHops sums their hop
	// counts. Read them for the DHT-behaviour experiment.
	Lookups    int64
	LookupHops int64

	// Resolved obs instruments (nil-safe when cfg.Obs is nil).
	mLookups  *obs.Counter
	mFailures *obs.Counter
	mHops     *obs.Histogram
}

// New creates a node bound to host with identity derived from the host
// address, and registers its RPC handlers.
func New(host transport.Host, cfg Config) *Node {
	n := &Node{
		host: host,
		id:   ids.HashString(string(host.Addr())),
		cfg:  cfg.withDefaults(),
	}
	n.ringCond.L = &n.mu
	if reg := n.cfg.Obs.Registry(); reg != nil {
		n.mLookups = reg.Counter("chord_lookups_total")
		n.mFailures = reg.Counter("chord_lookup_failures_total")
		n.mHops = reg.Histogram("chord_lookup_hops", obs.DefBucketsHops)
	}
	host.Handle(MStep, n.handleStep)
	host.Handle(MState, n.handleState)
	host.Handle(MNotify, n.handleNotify)
	host.Handle(MPing, n.handlePing)
	return n
}

// ID returns the node's ring identifier.
func (n *Node) ID() ids.ID { return n.id }

// Ref returns the node's own reference.
func (n *Node) Ref() Ref { return Ref{ID: n.id, Addr: n.host.Addr()} }

// Successor returns the current immediate successor.
func (n *Node) Successor() Ref {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.succs) == 0 {
		return Ref{}
	}
	return n.succs[0]
}

// Predecessor returns the current predecessor (possibly zero).
func (n *Node) Predecessor() Ref {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.pred
}

// OnRingChange adds fn to the hooks run (outside the node lock, in
// the order added) whenever this node's ring neighborhood changes:
// predecessor set or cleared, or the successor list rewritten. Layers
// that re-target state on ring position — the RN-Tree's parent, the
// replica subsystem's handoff trigger — hook in here instead of
// polling.
func (n *Node) OnRingChange(fn func()) {
	n.mu.Lock()
	n.ringChange = append(n.ringChange, fn)
	n.mu.Unlock()
}

func (n *Node) ringChanged() {
	n.ringCond.Broadcast()
	n.mu.Lock()
	n.unrest++
	hooks := n.ringChange
	n.mu.Unlock()
	for _, fn := range hooks {
		fn()
	}
}

// hintLocked records a successor hint: news of a live node that
// belongs between this node and its successor, or in its successor
// list, which the stabilize loop acts on at once instead of at the end
// of its period (see stabilizeLoop). Joins hint; a failure does not:
// a round run at once after a purge would re-import the dead node from
// a successor that has not purged it yet.
func (n *Node) hintLocked() {
	n.hinted = true
	n.ringCond.Broadcast()
}

// call is rt.Call for the chord protocol's own RPCs: a failure marks
// the ring unsettled, so stabilization returns to its base period.
func (n *Node) call(rt transport.Runtime, to transport.Addr, method string, req any) (any, error) {
	resp, err := rt.Call(to, method, req)
	if err != nil {
		n.mu.Lock()
		n.unrest++
		n.mu.Unlock()
	}
	return resp, err
}

// AwaitClosed parks until the ring has closed around this node (its
// successor is another node and a predecessor has notified it) or max
// passes, and reports whether it closed. It also returns false as soon
// as the node is alone, its successor list pointing at itself and no
// predecessor known: a joiner in that state has lost every successor
// it learned and no peer knows it, so no notify will close its ring.
func (n *Node) AwaitClosed(rt transport.Runtime, max time.Duration) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	for deadline := rt.Now() + max; ; rt.Wait(&n.ringCond, deadline-rt.Now()) {
		alone := len(n.succs) > 0 && n.succs[0].ID == n.id && n.pred.IsZero()
		closed := len(n.succs) > 0 && n.succs[0].ID != n.id && !n.pred.IsZero() && n.pred.ID != n.id
		if closed || alone || rt.Now() >= deadline {
			return closed
		}
	}
}

// SuccessorList returns a copy of the successor list.
func (n *Node) SuccessorList() []Ref {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]Ref, len(n.succs))
	copy(out, n.succs)
	return out
}

// Create initializes this node as the sole member of a new ring.
func (n *Node) Create() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.pred = n.Ref()
	n.succs = []Ref{n.Ref()}
}

// Join makes the node a member of the ring that bootstrap belongs to.
// It learns its successor via a lookup through bootstrap; stabilization
// then splices it fully into the ring.
func (n *Node) Join(rt transport.Runtime, bootstrap transport.Addr) error {
	owner, _, err := n.lookupVia(rt, bootstrap, n.id)
	if err != nil {
		return fmt.Errorf("chord: join via %s: %w", bootstrap, err)
	}
	n.mu.Lock()
	n.pred = Ref{}
	n.succs = []Ref{owner}
	if n.started {
		// A join again (peer.Launch's): splice in at once, as Start does.
		n.hintLocked()
	}
	n.mu.Unlock()
	return nil
}

// Start launches the periodic maintenance activities on the host.
func (n *Node) Start() {
	n.mu.Lock()
	if n.started {
		n.mu.Unlock()
		return
	}
	n.started = true
	if n.pred.IsZero() {
		// A joiner nobody has notified yet: splice in at once.
		n.hintLocked()
	}
	n.mu.Unlock()
	n.host.Go("chord.stabilize", n.stabilizeLoop)
	n.host.Go("chord.fixfingers", n.fixFingersLoop)
	n.host.Go("chord.checkpred", n.checkPredLoop)
}

// Lookup resolves the owner (successor) of key, returning the owner and
// the number of overlay hops taken.
func (n *Node) Lookup(rt transport.Runtime, key ids.ID) (Ref, int, error) {
	// Fast path: we own the key ourselves.
	n.mu.Lock()
	pred := n.pred
	n.mu.Unlock()
	if !pred.IsZero() && ids.BetweenRightIncl(key, pred.ID, n.id) {
		n.countLookup(0)
		return n.Ref(), 0, nil
	}
	owner, hops, err := n.lookupFrom(rt, n.Ref(), key)
	if err == nil {
		n.countLookup(hops)
	} else {
		n.mFailures.Inc()
	}
	return owner, hops, err
}

func (n *Node) countLookup(hops int) {
	n.mu.Lock()
	n.Lookups++
	n.LookupHops += int64(hops)
	n.mu.Unlock()
	n.mLookups.Inc()
	n.mHops.Observe(float64(hops))
}

// lookupVia starts an iterative lookup at a remote bootstrap node whose
// identifier we do not yet know.
func (n *Node) lookupVia(rt transport.Runtime, start transport.Addr, key ids.ID) (Ref, int, error) {
	resp, err := n.call(rt, start, MPing, PingReq{})
	if err != nil {
		return Ref{}, 0, err
	}
	return n.lookupFrom(rt, resp.(PingResp).Self, key)
}

// lookupFrom drives the iterative lookup protocol starting at cur.
func (n *Node) lookupFrom(rt transport.Runtime, cur Ref, key ids.ID) (Ref, int, error) {
	hops := 0
	failures := 0
	for hops < maxHops {
		var resp StepResp
		if cur.Addr == n.host.Addr() {
			resp = n.step(key)
		} else {
			raw, err := n.call(rt, cur.Addr, MStep, StepReq{Key: key})
			hops++
			if err != nil {
				failures++
				if failures > 3 {
					return Ref{}, hops, fmt.Errorf("%w: too many route failures (last: %v)", ErrLookupFailed, err)
				}
				// Route around the failure: restart from our own tables,
				// which exclude the dead node once stabilization notices.
				cur = n.Ref()
				continue
			}
			resp = raw.(StepResp)
		}
		if resp.Done {
			return resp.Owner, hops, nil
		}
		if resp.Next.IsZero() || resp.Next == cur {
			return Ref{}, hops, fmt.Errorf("%w: no progress at %s", ErrLookupFailed, cur)
		}
		cur = resp.Next
	}
	return Ref{}, hops, fmt.Errorf("%w: exceeded %d hops", ErrLookupFailed, maxHops)
}

// step computes one iterative-lookup step from this node's state.
func (n *Node) step(key ids.ID) StepResp {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.succs) == 0 {
		return StepResp{}
	}
	succ := n.succs[0]
	if ids.BetweenRightIncl(key, n.id, succ.ID) {
		return StepResp{Done: true, Owner: succ}
	}
	return StepResp{Next: n.closestPrecedingLocked(key)}
}

// closestPrecedingLocked returns the best next hop for key: the highest
// known node strictly inside (n.id, key). Falls back to the successor,
// which always makes progress when successor pointers are correct.
//
// Neighbouring fingers mostly repeat one node (a ring of N nodes has
// about log2(N) distinct ones among 160), and considering a ref again
// straight after itself cannot change best: either it was taken, and
// (n.id, r.ID) excludes r.ID, or it was rejected for the same reason
// again. So a run of equal fingers costs one consideration.
func (n *Node) closestPrecedingLocked(key ids.ID) Ref {
	best := Ref{}
	consider := func(r Ref) {
		if r.IsZero() || r.ID == n.id {
			return
		}
		if !ids.Between(r.ID, n.id, key) {
			return
		}
		if best.IsZero() || ids.Between(best.ID, n.id, r.ID) {
			best = r
		}
	}
	for i := ids.Bits - 1; i >= 0; i-- {
		if i == ids.Bits-1 || n.fingers[i] != n.fingers[i+1] {
			consider(n.fingers[i])
		}
	}
	for _, s := range n.succs {
		consider(s)
	}
	if best.IsZero() {
		return n.succs[0]
	}
	return best
}

// --- RPC handlers ---

func (n *Node) handleStep(rt transport.Runtime, from transport.Addr, req any) (any, error) {
	return n.step(req.(StepReq).Key), nil
}

func (n *Node) handleState(rt transport.Runtime, from transport.Addr, req any) (any, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if from == n.pred.Addr {
		n.predCaller, n.predCalled = from, rt.Now()
	}
	succs := make([]Ref, len(n.succs))
	copy(succs, n.succs)
	return StateResp{Self: Ref{ID: n.id, Addr: n.host.Addr()}, Pred: n.pred, Succs: succs}, nil
}

// handleNotify adopts cand as predecessor if it is closer than the one
// it has. A notify can also carry news about this node's successor, and
// is then a hint (stabilizeLoop): cand lies between this node and its
// successor (a joiner, named by the node it displaced), or cand is this
// node itself, named by a successor whose list gained a joiner (a
// refresh, see stabilizeOnce). When cand displaces a live predecessor,
// the displaced node is told about cand, so that its next stabilize
// round, run at once, adopts cand as its successor.
func (n *Node) handleNotify(rt transport.Runtime, from transport.Addr, req any) (any, error) {
	cand := req.(NotifyReq).Cand
	n.mu.Lock()
	if cand.ID == n.id {
		n.relay = true
		n.hintLocked()
		n.mu.Unlock()
		return NotifyResp{}, nil
	}
	changed := false
	var displaced Ref
	if n.pred.IsZero() || n.pred.ID == n.id || ids.Between(cand.ID, n.pred.ID, n.id) {
		if !n.pred.IsZero() && n.pred.ID != n.id && n.pred != cand {
			displaced = n.pred
		}
		changed = n.pred != cand
		n.pred = cand
	}
	if len(n.succs) > 0 && ids.Between(cand.ID, n.id, n.succs[0].ID) {
		n.hintLocked()
	}
	n.mu.Unlock()
	if changed {
		n.ringChanged()
	}
	if !displaced.IsZero() {
		n.host.Go("chord.displaced", func(rt transport.Runtime) {
			_, _ = n.call(rt, displaced.Addr, MNotify, NotifyReq{Cand: cand})
		})
	}
	return NotifyResp{}, nil
}

func (n *Node) handlePing(rt transport.Runtime, from transport.Addr, req any) (any, error) {
	return PingResp{Self: n.Ref()}, nil
}

// --- maintenance loops ---

// After calmRounds stabilize periods in a row in which this node's
// ring neighbourhood did not change and none of its chord calls
// failed, the next period is calmFactor times StabilizeEvery. Any
// change or failure restores the base period. One calm period is not
// enough: while a ring forms, a node whose own neighbourhood looks
// settled is often about to learn of a joiner, and backing off after
// one such period slowed the formation of a 5-node ring by a fifth.
// It is one doubling, and only of stabilize: backing off fix-fingers
// and checkpred too, or doubling further, delayed the ring repair that
// replica handoff and the client's status probes lean on (DESIGN.md
// §5).
const (
	calmRounds = 2
	calmFactor = 2
)

// stabilizeLoop runs a stabilize round at the end of each jittered
// period, or at once on a successor hint (hintLocked). At most
// successorListLen hinted rounds run per StabilizeEvery; a hint beyond
// that waits for the period to end, so a stream of joiners cannot keep
// the node busy. A ring that does not change sends no hint and keeps
// the periodic pace, drawing one jitter per period as before.
func (n *Node) stabilizeLoop(rt transport.Runtime) {
	calm, burst := 0, 0
	var since time.Duration
	for {
		period := n.cfg.StabilizeEvery
		if calm >= calmRounds {
			period *= calmFactor
		}
		if rt.Now()-since >= n.cfg.StabilizeEvery {
			burst, since = 0, rt.Now()
		}
		seen, hinted := n.awaitRound(rt, period, burst < successorListLen)
		if hinted {
			burst++
		}
		n.stabilizeOnce(rt)
		n.mu.Lock()
		if n.unrest == seen {
			calm++
		} else {
			calm = 0
		}
		n.mu.Unlock()
	}
}

// awaitRound parks until a jittered period ends or, when hints are
// heeded, a successor hint arrives, and consumes the hint. It returns
// the unrest count at the start of the period and whether a hint ended
// it. The lock is released by defer: a crashed host's proc unwinds
// through the wait (DESIGN.md §16).
func (n *Node) awaitRound(rt transport.Runtime, period time.Duration, heed bool) (seen uint64, hinted bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	seen = n.unrest
	deadline := rt.Now() + transport.Jitter(rt, period)
	for !(heed && n.hinted) && rt.Now() < deadline {
		rt.Wait(&n.ringCond, deadline-rt.Now())
	}
	hinted = heed && n.hinted
	n.hinted = false
	return seen, hinted
}

// stabilizeOnce runs one round of the Chord stabilization protocol:
// verify the immediate successor, adopt its predecessor if closer,
// refresh the successor list, and notify the successor about us
// unless it already names us as its predecessor. A round that spliced
// in a new successor, or that a refresh hint prompted, also sends the
// predecessor a refresh, a notify naming the predecessor itself, if
// the list changed since the predecessor was last told; the
// predecessor answers with a round of its own. So a joiner reaches
// every successor list it belongs in within round trips, and the relay
// stops where the joiner falls off the end of the lists.
func (n *Node) stabilizeOnce(rt transport.Runtime) {
	self := n.Ref()
	for {
		succ := n.Successor()
		if succ.IsZero() {
			return
		}
		if succ.ID == n.id {
			// Sole member: adopt our predecessor as successor if one
			// appeared (ring of two forming).
			n.mu.Lock()
			changed := false
			if !n.pred.IsZero() && n.pred.ID != n.id {
				n.succs = prependTrim(n.pred, nil, successorListLen)
				changed = true
				n.hintLocked()
			}
			n.mu.Unlock()
			if changed {
				n.ringChanged()
			}
			return
		}
		raw, err := n.call(rt, succ.Addr, MState, StateReq{})
		if err != nil {
			// Successor dead: promote the next live entry.
			n.mu.Lock()
			if len(n.succs) > 0 && n.succs[0] == succ {
				n.succs = n.succs[1:]
			}
			empty := len(n.succs) == 0
			if empty {
				// Last resort: point at ourselves and wait for a notify.
				n.succs = []Ref{self}
			}
			n.mu.Unlock()
			n.ringChanged()
			if empty {
				return
			}
			continue
		}
		st := raw.(StateResp)
		newSucc := succ
		if !st.Pred.IsZero() && st.Pred.ID != n.id && ids.Between(st.Pred.ID, n.id, succ.ID) {
			// A node appeared between us and our successor. Verify it
			// answers before adopting it: the successor can report a
			// predecessor that has since died, and installing a dead
			// succs[0] stalls lookups (and replica targeting) until the
			// next round notices. In steady state st.Pred is this node
			// itself, caught above, so the ping is join/repair-only.
			if _, err := n.call(rt, st.Pred.Addr, MPing, PingReq{}); err == nil {
				newSucc = st.Pred
			}
		}
		n.mu.Lock()
		old := n.succs
		relay := n.relay || newSucc != succ
		n.relay = false
		if newSucc == succ {
			// Adopt successor's list, shifted by one.
			n.succs = prependTrim(succ, st.Succs, successorListLen)
		} else {
			n.succs = prependTrim(newSucc, old, successorListLen)
			n.hintLocked()
		}
		changed := !refsEqual(old, n.succs)
		pred := n.pred
		n.untold = n.untold || changed
		refresh := relay && n.untold && !pred.IsZero() && pred.ID != n.id && pred != newSucc
		if refresh {
			n.untold = false
		}
		n.mu.Unlock()
		if changed {
			n.ringChanged()
		}
		// A notify naming the successor's current predecessor changes
		// nothing in handleNotify.
		if newSucc != succ || st.Pred != self {
			_, _ = n.call(rt, newSucc.Addr, MNotify, NotifyReq{Cand: self})
		}
		if refresh {
			_, _ = n.call(rt, pred.Addr, MNotify, NotifyReq{Cand: pred})
		}
		return
	}
}

func refsEqual(a, b []Ref) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func prependTrim(head Ref, rest []Ref, max int) []Ref {
	out := []Ref{head}
	for _, r := range rest {
		if r == head || r.IsZero() {
			continue
		}
		out = append(out, r)
		if len(out) == max {
			break
		}
	}
	return out
}

func (n *Node) fixFingersLoop(rt transport.Runtime) {
	for {
		rt.Sleep(transport.Jitter(rt, n.cfg.FixFingersEvery))
		n.fixFingersOnce(rt)
	}
}

// fixFingersOnce refreshes the next batch of finger-table entries.
// Entries whose interval start falls within (self, successor] need no
// lookup: the successor is the answer.
func (n *Node) fixFingersOnce(rt transport.Runtime) {
	for i := 0; i < fingersPerRound; i++ {
		n.mu.Lock()
		k := n.nextFinger
		n.nextFinger = (n.nextFinger + 1) % ids.Bits
		succ := Ref{}
		if len(n.succs) > 0 {
			succ = n.succs[0]
		}
		n.mu.Unlock()
		if succ.IsZero() {
			return
		}
		start := n.id.AddPow2(k)
		var target Ref
		if ids.BetweenRightIncl(start, n.id, succ.ID) {
			target = succ
		} else {
			owner, _, err := n.lookupFrom(rt, n.Ref(), start)
			if err != nil {
				continue
			}
			target = owner
		}
		n.mu.Lock()
		n.fingers[k] = target
		n.mu.Unlock()
	}
}

// checkPredLoop pings the predecessor every CheckPredEvery and purges
// it when the ping fails. A predecessor that asked for our state less
// than CheckPredEvery ago is alive as far as a ping could tell, so it
// is not pinged; one that stops calling is pinged at the next tick.
func (n *Node) checkPredLoop(rt transport.Runtime) {
	for {
		rt.Sleep(transport.Jitter(rt, n.cfg.CheckPredEvery))
		n.mu.Lock()
		pred := n.pred
		heard := n.predCaller == pred.Addr && rt.Now()-n.predCalled < n.cfg.CheckPredEvery
		n.mu.Unlock()
		if pred.IsZero() || pred.ID == n.id || heard {
			continue
		}
		if _, err := n.call(rt, pred.Addr, MPing, PingReq{}); err != nil {
			n.mu.Lock()
			changed := false
			if n.pred == pred {
				n.pred = Ref{}
				changed = true
			}
			if n.dropRefLocked(pred) {
				changed = true
			}
			n.mu.Unlock()
			if changed {
				n.ringChanged()
			}
		}
	}
}

// dropRefLocked purges a node that just failed a ping from the
// successor list and finger table. Without this, a dead predecessor
// lingered in routing state until stabilization propagated the failure
// around the ring — on small rings the predecessor IS in the successor
// list, so successor(k) stayed wrong for many rounds, delaying every
// layer that targets successors (replica handoff most of all).
// Reports whether anything changed.
func (n *Node) dropRefLocked(dead Ref) bool {
	changed := false
	kept := n.succs[:0]
	for _, s := range n.succs {
		if s == dead {
			changed = true
			continue
		}
		kept = append(kept, s)
	}
	n.succs = kept
	if len(n.succs) == 0 {
		// Last resort, as in stabilization: wait for a notify.
		n.succs = []Ref{n.Ref()}
	}
	for i, f := range n.fingers {
		if f == dead {
			n.fingers[i] = Ref{}
			changed = true
		}
	}
	return changed
}

// FingerTable returns a copy of the finger table (diagnostics only).
func (n *Node) FingerTable() [ids.Bits]Ref {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.fingers
}

// Neighbors appends to dst the distinct nodes this one routes through:
// fingers, then successors, in first-seen order, leaving out itself and
// zero refs. The RN-Tree walk and the TTL baseline step along these.
func (n *Node) Neighbors(dst []Ref) []Ref {
	n.mu.Lock()
	defer n.mu.Unlock()
	return appendNeighbors(dst, n.host.Addr(), n.fingers[:], n.succs)
}

// appendNeighbors is Neighbors over explicit tables. A ring of N nodes
// has about log2(N) distinct fingers, in runs of equal refs, so a scan
// of what is already kept beats a set.
func appendNeighbors(dst []Ref, self transport.Addr, fingers, succs []Ref) []Ref {
	add := func(r Ref) {
		if r.IsZero() || r.Addr == self {
			return
		}
		for _, o := range dst {
			if o.Addr == r.Addr {
				return
			}
		}
		dst = append(dst, r)
	}
	for i, f := range fingers {
		if i == 0 || f != fingers[i-1] {
			add(f)
		}
	}
	for _, s := range succs {
		add(s)
	}
	return dst
}
