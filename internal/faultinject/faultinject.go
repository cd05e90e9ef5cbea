// Package faultinject is the grid's one fault language, for the
// simulator and the live transport alike. It produces two artefacts
// from one seed:
//
//   - an injector (message-level faults): drop, duplicate, delay,
//     refuse or reset individual messages matched by RPC method name,
//     through the transport.FaultInjector hook both transports
//     consult. Rules are Go values or a ParseRules spec;
//   - a Schedule (node- and network-level faults): crash/restart
//     events for individual nodes and temporary partitions of address
//     sets, armed onto the sim engine at fixed virtual times.
//
// Because the simulator itself is deterministic, re-running the same
// deployment with the same schedule seed reproduces the identical
// failure sequence and the identical protocol event trace — every bug
// a random schedule surfaces is replayable by seed.
package faultinject

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/ids"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// Rule applies message-level faults to one RPC method (or to all
// methods when Method is empty). The first rule matching a message
// decides its fate; probabilities are evaluated per message.
type Rule struct {
	// Method is the exact RPC method name ("grid.heartbeat", ...);
	// empty matches every method.
	Method string
	// Requests/Responses select which leg the rule covers; with both
	// false the rule covers both legs.
	Requests  bool
	Responses bool
	// DropProb loses the message entirely.
	DropProb float64
	// RefuseProb and ResetProb fail the call as unreachable: a refused
	// connect, or a connection reset mid-request.
	RefuseProb float64
	ResetProb  float64
	// DupProb delivers a second copy of the message.
	DupProb float64
	// DelayProb adds a uniform extra delay in [DelayMin, DelayMax].
	DelayProb float64
	DelayMin  time.Duration
	DelayMax  time.Duration
}

func (r Rule) matches(method string, response bool) bool {
	if r.Method != "" && r.Method != method {
		return false
	}
	if !r.Requests && !r.Responses {
		return true
	}
	if response {
		return r.Responses
	}
	return r.Requests
}

// draws is where a rule evaluation gets its randomness; each draw is
// named by the decision it makes. The simulator reads one seeded
// stream in message order (the names go unused); the live transport
// hashes the names with the message's identity.
type draws interface {
	chance(kind string) float64       // uniform in [0, 1)
	below(kind string, n int64) int64 // uniform in [0, n)
}

// fate is the one rule evaluation. The first rule matching (method,
// leg) decides; it draws only for its non-zero probabilities, in the
// order drop, refuse, reset, dup, delay. The first three end the
// message, dup and delay combine. ok reports whether a rule matched.
func fate(rules []Rule, method string, response bool, d draws) (f transport.Fault, ok bool) {
	for _, r := range rules {
		if !r.matches(method, response) {
			continue
		}
		switch {
		case hit(d, "drop", r.DropProb):
			f.Drop = true
		case hit(d, "refuse", r.RefuseProb):
			f.Refuse = true
		case hit(d, "reset", r.ResetProb):
			f.Reset = true
		default:
			f.Duplicate = hit(d, "dup", r.DupProb)
			if hit(d, "delay", r.DelayProb) {
				f.Delay = r.DelayMin
				if r.DelayMax > r.DelayMin {
					f.Delay += time.Duration(d.below("delay-span", int64(r.DelayMax-r.DelayMin)))
				}
			}
		}
		return f, true
	}
	return f, false
}

func hit(d draws, kind string, p float64) bool { return p > 0 && d.chance(kind) < p }

// stream draws from one seeded RNG in call order.
type stream struct{ rng *rand.Rand }

func (s stream) chance(string) float64         { return s.rng.Float64() }
func (s stream) below(_ string, n int64) int64 { return s.rng.Int63n(n) }

// Injector is the simulator's transport.FaultInjector: an ordered rule
// list drawing from one seeded RNG in message order. Construct with
// NewInjector or Schedule.Injector.
type Injector struct {
	rng   *rand.Rand
	rules []Rule

	// Now, when set together with Until, confines faults to virtual
	// times before Until, letting a run quiesce and drain.
	Now   func() time.Duration
	Until time.Duration
}

// NewInjector returns an injector whose randomness derives only from
// seed; given the same message sequence it injects the same faults.
func NewInjector(seed int64, rules ...Rule) *Injector {
	return &Injector{rng: rand.New(rand.NewSource(seed)), rules: rules}
}

// Fate implements transport.FaultInjector.
func (in *Injector) Fate(from, to transport.Addr, method string, response bool) transport.Fault {
	if in.Until > 0 && in.Now != nil && in.Now() >= in.Until {
		return transport.Fault{}
	}
	f, _ := fate(in.rules, method, response, stream{in.rng})
	return f
}

// keyed draws each decision from a hash of (seed, kind, peer+method,
// seq), so it depends on the message's identity and not on the order
// goroutines reach the injector.
type keyed struct {
	seed int64
	key  string
	seq  int
}

func (k keyed) chance(kind string) float64 {
	return uniform(fmt.Sprintf("chaos/%d/%s/%s/%d", k.seed, kind, k.key, k.seq))
}

func (k keyed) below(kind string, n int64) int64 { return int64(k.chance(kind) * float64(n)) }

// uniform maps a decision's full identity onto [0, 1) through the ids
// hash. Unlike an RNG stream, the draw is independent of execution
// interleaving: the same decision comes out the same under any
// schedule, which keeps live chaos runs and seeded soaks replayable.
func uniform(key string) float64 {
	return float64(ids.HashString(key).Uint64()>>11) / float64(1<<53)
}

// Keyed is the live transport's transport.FaultInjector. Its
// determinism contract: every fate is a pure function of (seed, peer,
// method, seq), where peer is the destination and seq counts that
// (peer, method) pair's matched messages. Two runs with the same seed,
// rules and per-pair message counts draw the identical fault sequence
// per pair however goroutines interleave.
type Keyed struct {
	seed  int64
	rules []Rule

	mu   sync.Mutex
	seq  map[string]int // per "peer method" message counter
	logw io.Writer
}

// ParseChaos builds a keyed injector from a seed and a ParseRules
// spec, the -chaos flag of gridnode and gridctl chaos. A spec with no
// rules gives nil: no injector.
func ParseChaos(seed int64, spec string) (*Keyed, error) {
	rules, err := ParseRules(spec)
	if err != nil || len(rules) == 0 {
		return nil, err
	}
	return &Keyed{seed: seed, rules: rules, seq: make(map[string]int)}, nil
}

// CheckServed rejects a rule whose method no handler serves: such a
// rule matches no call and would silently inject nothing. handles
// reports whether a handler is registered for a method; every peer of
// a deployment registers the same set, so one host's answer holds for
// all of them. Nil-safe.
func (k *Keyed) CheckServed(handles func(method string) bool) error {
	if k == nil {
		return nil
	}
	for _, r := range k.rules {
		if r.Method != "" && !handles(r.Method) {
			return fmt.Errorf("rule names method %q, which no handler is registered for", r.Method)
		}
	}
	return nil
}

// SetLog mirrors every decision on a matched message (clean passes
// included) to w, one "peer method seq fate" line each: the replay
// evidence scripts/live_chaos.sh compares across runs. Writes happen
// under the injector's lock; pass something cheap (a file).
func (k *Keyed) SetLog(w io.Writer) {
	k.mu.Lock()
	k.logw = w
	k.mu.Unlock()
}

// Fate implements transport.FaultInjector.
func (k *Keyed) Fate(from, to transport.Addr, method string, response bool) transport.Fault {
	key := string(to) + " " + method
	k.mu.Lock()
	defer k.mu.Unlock()
	seq := k.seq[key]
	f, ok := fate(k.rules, method, response, keyed{k.seed, key, seq})
	if !ok {
		return f
	}
	k.seq[key] = seq + 1
	if k.logw != nil {
		fmt.Fprintf(k.logw, "%s %s %d %s\n", to, method, seq, fateName(f))
	}
	return f
}

// fateName is a fault's one-word name in the decision log.
func fateName(f transport.Fault) string {
	switch {
	case f.Drop:
		return "drop"
	case f.Refuse:
		return "refuse"
	case f.Reset:
		return "reset"
	case f.Duplicate && f.Delay > 0:
		return "dup+delay"
	case f.Duplicate:
		return "dup"
	case f.Delay > 0:
		return "delay"
	}
	return "none"
}

// ParseRules parses the flag-friendly rule syntax of gridnode -chaos
// and gridctl chaos -chaos. Rules are ';'-separated; each is a
// whitespace-separated list of key=value fields:
//
//	method=NAME          match one RPC method (absent = all)
//	drop=P               lose the message
//	dup=P                deliver it twice
//	delay=P:MIN[:MAX]    delay it uniformly in [MIN, MAX] (MAX = MIN if absent)
//	refuse=P             refuse the connect
//	reset=P              reset the connection mid-request
//
// Example: "method=grid.assign reset=0.1; delay=0.2:100ms:1s drop=0.03"
func ParseRules(spec string) ([]Rule, error) {
	var rules []Rule
	for _, part := range strings.Split(spec, ";") {
		fields := strings.Fields(part)
		if len(fields) == 0 {
			continue
		}
		var r Rule
		for _, tok := range fields {
			k, v, ok := strings.Cut(tok, "=")
			if !ok {
				return nil, fmt.Errorf("faultinject: rule field %q: want key=value", tok)
			}
			var err error
			switch k {
			case "method":
				r.Method = v
			case "drop":
				r.DropProb, err = parseProb(v)
			case "dup":
				r.DupProb, err = parseProb(v)
			case "refuse":
				r.RefuseProb, err = parseProb(v)
			case "reset":
				r.ResetProb, err = parseProb(v)
			case "delay":
				r.DelayProb, r.DelayMin, r.DelayMax, err = parseDelay(v)
			default:
				err = fmt.Errorf("unknown key")
			}
			if err != nil {
				return nil, fmt.Errorf("faultinject: rule field %q: %w", tok, err)
			}
		}
		rules = append(rules, r)
	}
	return rules, nil
}

func parseProb(s string) (float64, error) {
	p, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if !(p >= 0 && p <= 1) {
		return 0, fmt.Errorf("probability %v outside [0, 1]", p)
	}
	return p, nil
}

// parseDelay parses P:MIN[:MAX].
func parseDelay(s string) (p float64, min, max time.Duration, err error) {
	parts := strings.Split(s, ":")
	if len(parts) < 2 || len(parts) > 3 {
		return 0, 0, 0, fmt.Errorf("want P:MIN[:MAX]")
	}
	if p, err = parseProb(parts[0]); err != nil {
		return 0, 0, 0, err
	}
	if min, err = time.ParseDuration(parts[1]); err != nil {
		return 0, 0, 0, err
	}
	max = min
	if len(parts) == 3 {
		if max, err = time.ParseDuration(parts[2]); err != nil {
			return 0, 0, 0, err
		}
	}
	if min < 0 || max < min {
		return 0, 0, 0, fmt.Errorf("want 0 <= MIN <= MAX")
	}
	return p, min, max, nil
}

// NodeEvent is one scheduled crash or restart of a node, identified by
// its index in the harness's node list.
type NodeEvent struct {
	At      time.Duration
	Node    int
	Restart bool // false = crash
}

// Partition isolates Group from the rest of the network during
// [From, Heal). Nodes inside the group still reach each other.
type Partition struct {
	From, Heal time.Duration
	Group      []int
}

// Schedule is one replayable failure schedule over a fixed node
// population: message-fault rules plus timed node and partition events.
type Schedule struct {
	Seed  int64
	Rules []Rule
	// RuleWindow, when nonzero, stops message faults at that virtual
	// time (node/partition events carry their own times).
	RuleWindow time.Duration
	Nodes      []NodeEvent
	Parts      []Partition
}

// Plan parameterizes random schedule generation.
type Plan struct {
	// Nodes is the population size; node indexes are [0, Nodes).
	Nodes int
	// Protect lists node indexes never crashed or partitioned (clients).
	Protect []int
	// Window is the virtual-time span [0, Window) in which faults occur.
	Window time.Duration
	// Crashes is how many crash events to schedule.
	Crashes int
	// RestartProb is the chance a crashed node is later restarted.
	RestartProb float64
	// RestartDelay bounds the crash-to-restart gap (uniform).
	RestartDelayMin, RestartDelayMax time.Duration
	// PairCrashes is how many correlated double-crash events to
	// schedule: two distinct nodes crash at the same instant. Aimed at
	// a job's owner and run node dying together — the double failure
	// that defeats single-owner recovery and only replicated owner
	// state (grid.ReplicaK) survives without a client resubmit. Each
	// victim draws its restart independently, like single crashes.
	PairCrashes int
	// Partitions is how many partition events to schedule; each isolates
	// PartitionSize nodes (default 1) for a uniform duration in
	// [PartitionDurMin, PartitionDurMax].
	Partitions      int
	PartitionSize   int
	PartitionDurMin time.Duration
	PartitionDurMax time.Duration
	// Rules are the message-fault rules, active during [0, Window).
	Rules []Rule
}

// Generate derives a schedule deterministically from (seed, plan).
func Generate(seed int64, p Plan) Schedule {
	rng := rand.New(rand.NewSource(seed))
	s := Schedule{Seed: seed, Rules: p.Rules, RuleWindow: p.Window}
	protect := make(map[int]bool, len(p.Protect))
	for _, i := range p.Protect {
		protect[i] = true
	}
	var eligible []int
	for i := 0; i < p.Nodes; i++ {
		if !protect[i] {
			eligible = append(eligible, i)
		}
	}
	if len(eligible) == 0 {
		return s
	}
	uniform := func(min, max time.Duration) time.Duration {
		if max <= min {
			return min
		}
		return min + time.Duration(rng.Int63n(int64(max-min)))
	}
	for k := 0; k < p.Crashes; k++ {
		node := eligible[rng.Intn(len(eligible))]
		at := uniform(0, p.Window)
		s.Nodes = append(s.Nodes, NodeEvent{At: at, Node: node})
		if p.RestartProb > 0 && rng.Float64() < p.RestartProb {
			back := at + uniform(p.RestartDelayMin, p.RestartDelayMax)
			s.Nodes = append(s.Nodes, NodeEvent{At: back, Node: node, Restart: true})
		}
	}
	// Pair-crash draws come after single-crash draws and before
	// partition draws; a zero PairCrashes consumes no draws, so
	// schedules generated before the knob existed replay identically.
	for k := 0; k < p.PairCrashes && len(eligible) >= 2; k++ {
		perm := rng.Perm(len(eligible))
		at := uniform(0, p.Window)
		for i := 0; i < 2; i++ {
			node := eligible[perm[i]]
			s.Nodes = append(s.Nodes, NodeEvent{At: at, Node: node})
			if p.RestartProb > 0 && rng.Float64() < p.RestartProb {
				back := at + uniform(p.RestartDelayMin, p.RestartDelayMax)
				s.Nodes = append(s.Nodes, NodeEvent{At: back, Node: node, Restart: true})
			}
		}
	}
	size := p.PartitionSize
	if size <= 0 {
		size = 1
	}
	if size > len(eligible) {
		size = len(eligible)
	}
	for k := 0; k < p.Partitions; k++ {
		perm := rng.Perm(len(eligible))
		group := make([]int, size)
		for i := 0; i < size; i++ {
			group[i] = eligible[perm[i]]
		}
		sort.Ints(group)
		from := uniform(0, p.Window)
		s.Parts = append(s.Parts, Partition{
			From:  from,
			Heal:  from + uniform(p.PartitionDurMin, p.PartitionDurMax),
			Group: group,
		})
	}
	sort.SliceStable(s.Nodes, func(i, j int) bool { return s.Nodes[i].At < s.Nodes[j].At })
	sort.SliceStable(s.Parts, func(i, j int) bool { return s.Parts[i].From < s.Parts[j].From })
	return s
}

// Injector builds the schedule's message-fault injector. now may be
// nil; when set, rules stop applying at RuleWindow. The injector's RNG
// is derived from the schedule seed, independent of generation draws.
func (s Schedule) Injector(now func() time.Duration) *Injector {
	in := NewInjector(s.Seed+1, s.Rules...)
	in.Now = now
	in.Until = s.RuleWindow
	return in
}

// --- Byzantine (sabotage) behaviors ---

// ByzPlan parameterizes saboteur generation: which nodes lie, and how
// often.
type ByzPlan struct {
	// Fraction of the (unprotected) population that sabotages.
	Fraction float64
	// WrongProb is the per-(job, attempt) chance a saboteur corrupts
	// its result digest.
	WrongProb float64
	// WithholdProb is the per-(job, attempt) chance a saboteur
	// completes a job but silently withholds the result.
	WithholdProb float64
	// Protect lists node indexes never made saboteurs (clients).
	Protect []int
}

// Byz maps node indexes to sabotage behaviors for one seeded plan.
type Byz struct {
	seed int64
	plan ByzPlan
	bad  map[int]bool
}

// GenerateByz deterministically selects which of nodes sabotage. The
// node-selection draws come from (seed, plan) only, so the same seed
// always corrupts the same peers.
func GenerateByz(seed int64, nodes int, p ByzPlan) *Byz {
	rng := rand.New(rand.NewSource(seed))
	protect := make(map[int]bool, len(p.Protect))
	for _, i := range p.Protect {
		protect[i] = true
	}
	var eligible []int
	for i := 0; i < nodes; i++ {
		if !protect[i] {
			eligible = append(eligible, i)
		}
	}
	count := int(float64(len(eligible))*p.Fraction + 0.5)
	b := &Byz{seed: seed, plan: p, bad: make(map[int]bool)}
	perm := rng.Perm(len(eligible))
	for i := 0; i < count && i < len(eligible); i++ {
		b.bad[eligible[perm[i]]] = true
	}
	return b
}

// Saboteur reports whether node index i sabotages.
func (b *Byz) Saboteur(i int) bool { return b.bad[i] }

// Saboteurs returns the saboteur indexes, sorted.
func (b *Byz) Saboteurs() []int {
	var out []int
	for i := range b.bad {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// chance is one (node, job, attempt) decision's keyed draw.
func (b *Byz) chance(kind string, node int, jobID ids.ID, attempt int) float64 {
	return uniform(fmt.Sprintf("byz/%d/%s/%d/%s/%d", b.seed, kind, node, jobID, attempt))
}

// Behavior returns the grid-layer Byzantine hook for node index i, or
// nil when the node is honest.
func (b *Byz) Behavior(i int) func(jobID ids.ID, attempt int) (wrong, withhold bool) {
	if !b.bad[i] {
		return nil
	}
	return func(jobID ids.ID, attempt int) (wrong, withhold bool) {
		wrong = b.chance("wrong", i, jobID, attempt) < b.plan.WrongProb
		withhold = !wrong && b.chance("withhold", i, jobID, attempt) < b.plan.WithholdProb
		return wrong, withhold
	}
}

// Harness is what a deployment exposes for node events to act on.
// Crash takes a node down (killing its activities); Restart brings it
// back with protocol loops relaunched and soft state cleared.
type Harness interface {
	Crash(node int)
	Restart(node int)
}

// Arm schedules the node and partition events onto engine e. Node
// events call the harness; partitions install a reachability predicate
// on net via addrOf (node index -> address). Overlapping partitions
// compose: two addresses reach each other only if they are on the same
// side of every active partition.
//
// The returned disarm cancels every not-yet-fired event. Call it
// before draining the engine (e.g. sim.Engine.Shutdown): a pending
// restart event that fires during the drain would spawn fresh protocol
// loops after the kill sweep and the drain would never terminate.
func (s Schedule) Arm(e *sim.Engine, net *simnet.Net, h Harness, addrOf func(i int) transport.Addr) (disarm func()) {
	var armed []*sim.Event
	for _, ev := range s.Nodes {
		ev := ev
		if ev.Restart {
			armed = append(armed, e.Schedule(ev.At, func() { h.Restart(ev.Node) }))
		} else {
			armed = append(armed, e.Schedule(ev.At, func() { h.Crash(ev.Node) }))
		}
	}
	if len(s.Parts) > 0 {
		active := make(map[int]map[transport.Addr]bool)
		net.SetReachable(func(a, b transport.Addr) bool {
			for _, group := range active {
				if group[a] != group[b] {
					return false
				}
			}
			return true
		})
		for i, part := range s.Parts {
			i, part := i, part
			armed = append(armed, e.Schedule(part.From, func() {
				group := make(map[transport.Addr]bool, len(part.Group))
				for _, n := range part.Group {
					group[addrOf(n)] = true
				}
				active[i] = group
			}))
			armed = append(armed, e.Schedule(part.Heal, func() { delete(active, i) }))
		}
	}
	return func() {
		for _, ev := range armed {
			ev.Stop()
		}
	}
}
