// Package simnet models a message-passing network on top of the sim
// kernel: named endpoints, configurable latency, message loss,
// partitions, and node crashes. An Endpoint is a transport.Host, as a
// nettransport.Host is: its activities and handlers run as sim procs
// behind a transport.Runtime whose Call blocks the proc until a
// response arrives or a timeout fires, and whose failures are
// transport's sentinels, so protocol code is transport-agnostic.
package simnet

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/sim"
	"repro/internal/transport"
)

// LatencyModel produces one-way message delays.
type LatencyModel interface {
	Delay(rng *rand.Rand, from, to transport.Addr) time.Duration
}

// UniformLatency draws delays uniformly from [Min, Max].
type UniformLatency struct {
	Min, Max time.Duration
}

// Delay implements LatencyModel.
func (u UniformLatency) Delay(rng *rand.Rand, from, to transport.Addr) time.Duration {
	if u.Max <= u.Min {
		return u.Min
	}
	return u.Min + time.Duration(rng.Int63n(int64(u.Max-u.Min)))
}

// FixedLatency returns a constant delay.
type FixedLatency time.Duration

// Delay implements LatencyModel.
func (f FixedLatency) Delay(*rand.Rand, transport.Addr, transport.Addr) time.Duration {
	return time.Duration(f)
}

// Stats counts network activity; read it after a run.
type Stats struct {
	Messages  int64 // delivered messages (requests + responses)
	Dropped   int64 // lost to partitions, crashes, or injected drops
	Timeouts  int64 // calls that timed out
	Refused   int64 // calls refused: target down, or an injected refuse or reset
	Handlers  int64 // handler invocations
	CallsSent int64 // Call invocations
	Faulted   int64 // messages touched by the fault injector
	// ByMethod tallies delivered requests per RPC method (lazily
	// allocated on first delivery) — the breakdown experiments use to
	// attribute traffic to protocol roles (e.g. status polls vs push
	// notifications).
	ByMethod map[string]int64
}

// Net is a simulated network. All endpoints attach to one Net.
type Net struct {
	Engine *sim.Engine

	// Latency produces one-way delays; defaults to 20-60 ms.
	Latency LatencyModel
	// CallTimeout bounds Call, and CallT when the caller's timeout is
	// not positive.
	CallTimeout time.Duration
	// RefuseWhenDown makes calls to a down endpoint fail after one
	// one-way latency (TCP RST behaviour) instead of timing out.
	RefuseWhenDown bool
	// Faults, when non-nil, decides each message's injected fault on
	// top of partitions and crashes; it is consulted once per leg,
	// after the leg's latency draw. Injected faults are counted in
	// Stats.Faulted.
	Faults transport.FaultInjector

	Stats Stats

	rng       *rand.Rand
	endpoints map[transport.Addr]*Endpoint
	reachable func(a, b transport.Addr) bool
}

// New returns a network with default latency (20-60 ms one-way),
// no drops, a 3 s call timeout, and RST-style refusal.
func New(e *sim.Engine) *Net {
	return &Net{
		Engine:         e,
		Latency:        UniformLatency{20 * time.Millisecond, 60 * time.Millisecond},
		CallTimeout:    3 * time.Second,
		RefuseWhenDown: true,
		rng:            e.NewRand(),
		endpoints:      make(map[transport.Addr]*Endpoint),
	}
}

// SetReachable installs a reachability predicate (nil means fully
// connected) to model partitions.
func (n *Net) SetReachable(fn func(a, b transport.Addr) bool) { n.reachable = fn }

// Reachable reports whether messages from a currently reach b under
// the installed partition predicate.
func (n *Net) Reachable(a, b transport.Addr) bool {
	return n.reachable == nil || n.reachable(a, b)
}

// Endpoint returns the endpoint with the given address, or nil.
func (n *Net) Endpoint(addr transport.Addr) *Endpoint { return n.endpoints[addr] }

// NewEndpoint creates and registers an endpoint. It panics if the
// address is taken.
func (n *Net) NewEndpoint(addr transport.Addr) *Endpoint {
	if _, ok := n.endpoints[addr]; ok {
		panic(fmt.Sprintf("simnet: duplicate endpoint %q", addr))
	}
	ep := &Endpoint{
		net:      n,
		addr:     addr,
		up:       true,
		handlers: make(map[string]handler),
		procs:    make(map[*sim.Proc]struct{}),
	}
	n.endpoints[addr] = ep
	return ep
}

// handler is a registered transport.Handler with its proc name and
// attribution layer, worked out once at registration rather than per
// request.
type handler struct {
	serve transport.Handler
	name  string // "h:<method>"
	layer string // LayerOf(name)
}

// Endpoint is one simulated host's attachment to the network. It
// implements transport.Host.
type Endpoint struct {
	net      *Net
	addr     transport.Addr
	up       bool
	handlers map[string]handler
	procs    map[*sim.Proc]struct{}
	seq      int
}

var _ transport.Host = (*Endpoint)(nil)

// Addr implements transport.Host.
func (ep *Endpoint) Addr() transport.Addr { return ep.addr }

// Up implements transport.Host: false from a crash until the restart.
func (ep *Endpoint) Up() bool { return ep.up }

// Handle implements transport.Host. Each request runs the handler in
// its own proc on this endpoint, killed if the endpoint crashes.
func (ep *Endpoint) Handle(method string, h transport.Handler) {
	name := "h:" + method
	ep.handlers[method] = handler{serve: h, name: name, layer: LayerOf(name)}
}

// Handles reports whether a handler is registered for method, as
// nettransport.Host.Handles does (faultinject's CheckServed asks).
func (ep *Endpoint) Handles(method string) bool {
	_, ok := ep.handlers[method]
	return ok
}

// Go implements transport.Host: fn runs in a proc owned by this
// endpoint, killed when the endpoint crashes. The proc's spawn — and,
// by tag inheritance, everything it schedules — is attributed to the
// subsystem its name classifies into.
func (ep *Endpoint) Go(name string, fn func(rt transport.Runtime)) {
	ep.spawn(LayerOf(name), name, fn)
}

// Procs returns how many procs the endpoint owns: its activities and
// its in-flight request handlers.
func (ep *Endpoint) Procs() int { return len(ep.procs) }

// spawn is Go with the layer already classified. The proc is named
// addr/name#seq in trace lines; the name is built only when the engine
// traces, since nothing else reads it.
func (ep *Endpoint) spawn(layer, name string, fn func(rt transport.Runtime)) {
	ep.seq++
	e := ep.net.Engine
	var traced string
	if e.Trace != nil {
		traced = fmt.Sprintf("%s/%s#%d", ep.addr, name, ep.seq)
	}
	var p *sim.Proc
	e.Tagged(layer, func() {
		p = e.Spawn(traced, func(p *sim.Proc) {
			// Deferred, so it runs when fn returns as well as when a kill
			// unwinds it: a handler proc that stayed listed after
			// returning would never be collected.
			defer delete(ep.procs, p)
			fn(&runtime{ep: ep, p: p})
		})
	})
	ep.procs[p] = struct{}{}
}

// Crash takes the endpoint down, killing every proc it owns (including
// in-flight request handlers). In-flight messages to it are lost.
func (ep *Endpoint) Crash() {
	if !ep.up {
		return
	}
	ep.up = false
	for _, p := range sim.SortProcs(ep.procs) {
		p.Kill()
	}
	ep.procs = make(map[*sim.Proc]struct{})
}

// Restart brings a crashed endpoint back up with no procs running;
// higher layers must re-start their protocol loops and rejoin.
func (ep *Endpoint) Restart() { ep.up = true }

// runtime binds one proc of an endpoint to transport.Runtime.
type runtime struct {
	ep *Endpoint
	p  *sim.Proc
}

func (r *runtime) Now() time.Duration    { return time.Duration(r.p.Now()) }
func (r *runtime) Sleep(d time.Duration) { r.p.Sleep(d) }
func (r *runtime) Rand() *rand.Rand      { return r.p.Rand() }

// Wait implements transport.Runtime: the proc parks in sim.Proc.Await
// and the broadcast calls its waker, so the virtual clock keeps
// advancing and the waiter resumes at the broadcast's own instant.
func (r *runtime) Wait(c *transport.Cond, max time.Duration) bool {
	switch {
	case max == transport.Forever:
		max = -1 // Await's "no bound"
	case max < 0:
		max = 0
	}
	return c.Park(r.p.Waker(), func() bool { return r.p.Await(max) })
}

type rpcResult struct {
	resp any
	err  error
}

// replySlot is one call's reply: the first result sent into it, and
// the waker of the proc parked in CallT. done is set by that first
// result or when CallT stops waiting, whichever comes first, so a
// duplicate or late reply neither overwrites the result nor wakes the
// proc from whatever it waits on next.
type replySlot struct {
	res  rpcResult
	done bool
	wake func()
}

// send fills the slot and wakes the caller, unless it is already done.
func (r *replySlot) send(res rpcResult) {
	if r.done {
		return
	}
	r.res, r.done = res, true
	r.wake()
}

// Call implements transport.Runtime with the network's CallTimeout.
func (r *runtime) Call(to transport.Addr, method string, req any) (any, error) {
	return r.CallT(to, method, req, r.ep.net.CallTimeout)
}

// CallT implements transport.Runtime. A timeout that is not positive
// selects the network's CallTimeout, as the live transport's default.
func (r *runtime) CallT(to transport.Addr, method string, req any, timeout time.Duration) (any, error) {
	ep, p := r.ep, r.p
	n := ep.net
	n.Stats.CallsSent++
	if !ep.up {
		return nil, transport.ErrDown
	}
	if timeout <= 0 {
		timeout = n.CallTimeout
	}
	reply := &replySlot{wake: p.Waker()}
	oneWay := n.Latency.Delay(n.rng, ep.addr, to)
	fault := n.fate(ep.addr, to, method, false)
	target := n.endpoints[to]
	switch {
	case fault.Drop || !n.Reachable(ep.addr, to):
		n.Stats.Dropped++
		// Message lost in transit: the caller just times out.
	case fault.Refuse || fault.Reset:
		n.refuse(oneWay, method, reply)
	case target == nil || !target.up:
		if n.RefuseWhenDown {
			n.refuse(oneWay, method, reply)
		}
	default:
		n.Engine.Tagged(LayerOf(method), func() {
			n.Engine.Schedule(oneWay+fault.Delay, func() {
				n.deliver(ep.addr, to, method, req, reply)
			})
			if fault.Duplicate {
				// The copy takes its own (later) path through the network.
				dupWay := oneWay + fault.Delay + n.Latency.Delay(n.rng, ep.addr, to)
				n.Engine.Schedule(dupWay, func() {
					n.deliver(ep.addr, to, method, req, reply)
				})
			}
		})
	}

	ok := p.Await(timeout)
	reply.done = true
	if !ok {
		n.Stats.Timeouts++
		return nil, transport.ErrTimeout
	}
	return reply.res.resp, reply.res.err
}

// deliver runs on the engine at arrival time: it re-checks liveness
// (the target may have crashed while the message was in flight) and
// spawns a handler proc.
func (n *Net) deliver(from, to transport.Addr, method string, req any, reply *replySlot) {
	target := n.endpoints[to]
	if target == nil || !target.up {
		n.Stats.Dropped++
		return
	}
	n.Stats.Messages++
	if n.Stats.ByMethod == nil {
		n.Stats.ByMethod = make(map[string]int64)
	}
	n.Stats.ByMethod[method]++
	h, ok := target.handlers[method]
	if !ok {
		n.respond(to, from, method, reply, rpcResult{err: fmt.Errorf("%w: %s on %s", transport.ErrNoHandler, method, to)})
		return
	}
	n.Stats.Handlers++
	target.spawn(h.layer, h.name, func(rt transport.Runtime) {
		resp, err := h.serve(rt, from, req)
		if err != nil {
			// Only the message crosses a TCP connection, so only the
			// message crosses this one: a caller that branched on the
			// handler's own error value would pass here and fail live.
			err = errors.New(err.Error())
		}
		n.respond(to, from, method, reply, rpcResult{resp: resp, err: err})
	})
}

// respond sends a response back across the network, subject to the
// same loss, partition, and fault-injection rules as the request.
func (n *Net) respond(from, to transport.Addr, method string, reply *replySlot, res rpcResult) {
	src := n.endpoints[from]
	if src != nil && !src.up {
		return // responder crashed before replying
	}
	fault := n.fate(from, to, method, true)
	if fault.Drop || !n.Reachable(from, to) {
		n.Stats.Dropped++
		return
	}
	oneWay := n.Latency.Delay(n.rng, from, to) + fault.Delay
	if fault.Refuse || fault.Reset {
		n.refuse(oneWay, method, reply)
		return
	}
	send := func() {
		n.Stats.Messages++
		reply.send(res)
	}
	n.Engine.Tagged(LayerOf(method), func() {
		n.Engine.Schedule(oneWay, send)
		if fault.Duplicate {
			// The caller keeps the first reply and ignores this one — still
			// worth modelling for stats.
			n.Engine.Schedule(oneWay+n.Latency.Delay(n.rng, from, to), send)
		}
	})
}

// refuse answers a call with ErrUnreachable after one one-way
// latency, as a TCP RST would.
func (n *Net) refuse(oneWay time.Duration, method string, reply *replySlot) {
	n.Stats.Refused++
	n.Engine.Tagged(LayerOf(method), func() {
		n.Engine.Schedule(oneWay, func() {
			reply.send(rpcResult{err: transport.ErrUnreachable})
		})
	})
}

// fate consults the fault injector, if any.
func (n *Net) fate(from, to transport.Addr, method string, response bool) transport.Fault {
	if n.Faults == nil {
		return transport.Fault{}
	}
	f := n.Faults.Fate(from, to, method, response)
	if f != (transport.Fault{}) {
		n.Stats.Faulted++
	}
	return f
}
