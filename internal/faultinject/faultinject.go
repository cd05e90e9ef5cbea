// Package faultinject is the grid's one fault language, for the
// simulator and the live transport alike. It produces two artefacts
// from one seed:
//
//   - an injector, Keyed (message-level faults): drop, duplicate,
//     delay, refuse or reset messages matched by RPC method name,
//     through the transport.FaultInjector hook both transports
//     consult, each fate drawn from the message's key, not its order.
//     Rules are Go values or a ParseRules spec;
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

// fate is the one rule evaluation. It draws only for the rule's
// non-zero probabilities, in the order drop, refuse, reset, dup,
// delay. The first three end the message, dup and delay combine.
func (r *Rule) fate(d draw) (f transport.Fault) {
	switch {
	case d.hit(drawDrop, r.DropProb):
		f.Drop = true
	case d.hit(drawRefuse, r.RefuseProb):
		f.Refuse = true
	case d.hit(drawReset, r.ResetProb):
		f.Reset = true
	default:
		f.Duplicate = d.hit(drawDup, r.DupProb)
		if d.hit(drawDelay, r.DelayProb) {
			f.Delay = r.DelayMin
			if r.DelayMax > r.DelayMin {
				f.Delay += time.Duration(d.chance(drawDelaySpan) * float64(r.DelayMax-r.DelayMin))
			}
		}
	}
	return f
}

// The decisions one message's fate can draw; fewer than 8.
const (
	drawDrop uint64 = iota
	drawRefuse
	drawReset
	drawDup
	drawDelay
	drawDelaySpan
)

// draw is one matched message's randomness: its key's hash and its
// seq on that key. A decision is the splitmix64 output at index (seq,
// kind) of the stream seeded with the hash, so no two decisions of a
// key share an index, and nothing is formatted or allocated.
type draw struct{ key, seq uint64 }

func (d draw) chance(kind uint64) float64 {
	z := d.key + (d.seq*8+kind+1)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return float64((z^z>>31)>>11) / (1 << 53)
}

func (d draw) hit(kind uint64, p float64) bool { return p > 0 && d.chance(kind) < p }

// uniform maps a decision's full identity onto [0, 1) through the ids
// hash: the same decision comes out the same under any schedule.
func uniform(key string) float64 {
	return float64(ids.HashString(key).Uint64()>>11) / float64(1<<53)
}

// Keyed is the one transport.FaultInjector, the simulator's (installed
// by Schedule.Arm) and the live transport's (-chaos). Every fate is a
// pure function of (seed, from, to, method, leg, seq), where seq counts
// the messages a rule matched on that key: no other key's traffic, nor
// the order goroutines reach the injector, moves it.
type Keyed struct {
	seed  int64
	rules []Rule

	mu   sync.Mutex
	keys map[fateKey]*keyState
	logw io.Writer
}

type fateKey struct {
	from, to transport.Addr
	method   string
	leg      uint8 // an index into legNames
}

var legNames = [2]string{"req", "resp"}

// hash is FNV-1a over the seed and the key's fields, taken once, when
// the key is first seen.
func (k fateKey) hash(seed int64) uint64 {
	h := 14695981039346656037 ^ uint64(seed)
	for _, b := range []byte(string(k.from) + "/" + string(k.to) + "/" + k.method + "/" + legNames[k.leg] + "/") {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return h
}

// keyState is a key's hash and how many messages a rule matched on it.
type keyState struct{ hash, seq uint64 }

// NewKeyed returns an injector over rules whose fates derive only from
// seed and each message's key.
func NewKeyed(seed int64, rules ...Rule) *Keyed {
	return &Keyed{seed: seed, rules: rules, keys: make(map[fateKey]*keyState)}
}

// ParseChaos builds an injector from a seed and a ParseRules spec, the
// -chaos flag of gridnode and gridctl chaos. A spec with no rules gives
// nil: no injector.
func ParseChaos(seed int64, spec string) (*Keyed, error) {
	rules, err := ParseRules(spec)
	if err != nil || len(rules) == 0 {
		return nil, err
	}
	return NewKeyed(seed, rules...), nil
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
// included) to w, one "from to method leg seq fate" line each: the
// replay evidence scripts/live_chaos.sh compares across runs. Writes
// happen under the injector's lock; pass something cheap (a file).
func (k *Keyed) SetLog(w io.Writer) {
	k.mu.Lock()
	k.logw = w
	k.mu.Unlock()
}

// Fate implements transport.FaultInjector; the first matching rule decides.
func (k *Keyed) Fate(from, to transport.Addr, method string, response bool) transport.Fault {
	i := 0
	for i < len(k.rules) && !k.rules[i].matches(method, response) {
		i++
	}
	if i == len(k.rules) {
		return transport.Fault{}
	}
	key := fateKey{from, to, method, 0}
	if response {
		key.leg = 1
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	st := k.keys[key]
	if st == nil {
		st = &keyState{hash: key.hash(k.seed)}
		k.keys[key] = st
	}
	d := draw{st.hash, st.seq}
	st.seq++
	f := k.rules[i].fate(d)
	if k.logw != nil {
		fmt.Fprintf(k.logw, "%s %s %s %s %d %s\n", from, to, method, legNames[key.leg], d.seq, fateName(f))
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
	// RuleWindow, when nonzero, stops message faults that long after
	// Arm, as node and partition events fire that long after it.
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

// Arm puts the schedule on engine e and network net. A schedule with
// rules installs its injector, a Keyed seeded with Seed+1, as net's
// Faults, and removes it RuleWindow later when that is set. Node events call the harness; partitions install a reachability
// predicate on net via addrOf (node index -> address). Overlapping
// partitions compose: two addresses reach each other only if they are
// on the same side of every active partition.
//
// The returned disarm cancels every not-yet-fired event and removes the
// injector. Call it before draining the engine (e.g.
// sim.Engine.Shutdown): a pending restart event that fires during the
// drain would spawn fresh protocol loops after the kill sweep and the
// drain would never terminate.
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
	stop := func() {}
	if len(s.Rules) > 0 {
		net.Faults = NewKeyed(s.Seed+1, s.Rules...)
		stop = func() { net.Faults = nil }
		if s.RuleWindow > 0 {
			armed = append(armed, e.Schedule(s.RuleWindow, stop))
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
		stop()
	}
}
