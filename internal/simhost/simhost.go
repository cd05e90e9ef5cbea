// Package simhost adapts a simnet.Endpoint to the transport.Host and
// transport.Runtime interfaces, binding protocol code to the
// deterministic simulator.
package simhost

import (
	"errors"
	"math/rand"
	"time"

	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// Host implements transport.Host over a simulated endpoint.
type Host struct {
	ep *simnet.Endpoint
}

// New wraps a simulated endpoint.
func New(ep *simnet.Endpoint) *Host { return &Host{ep: ep} }

// Endpoint returns the underlying simulated endpoint.
func (h *Host) Endpoint() *simnet.Endpoint { return h.ep }

// Addr implements transport.Host.
func (h *Host) Addr() transport.Addr { return transport.Addr(h.ep.Addr()) }

// Up implements transport.Host.
func (h *Host) Up() bool { return h.ep.Up() }

// Handle implements transport.Host.
func (h *Host) Handle(method string, fn transport.Handler) {
	h.ep.Handle(method, func(p *sim.Proc, from simnet.Addr, req any) (any, error) {
		return fn(&runtime{h: h, p: p}, transport.Addr(from), req)
	})
}

// Go implements transport.Host.
func (h *Host) Go(name string, fn func(rt transport.Runtime)) {
	h.ep.Go(name, func(p *sim.Proc) {
		fn(&runtime{h: h, p: p})
	})
}

// runtime binds one simulated proc to the transport.Runtime interface.
type runtime struct {
	h *Host
	p *sim.Proc
}

func (r *runtime) Now() time.Duration    { return time.Duration(r.p.Now()) }
func (r *runtime) Sleep(d time.Duration) { r.p.Sleep(d) }
func (r *runtime) Rand() *rand.Rand      { return r.p.Rand() }

func (r *runtime) Call(to transport.Addr, method string, req any) (any, error) {
	resp, err := r.h.ep.Call(r.p, simnet.Addr(to), method, req)
	return resp, translate(err)
}

func (r *runtime) CallT(to transport.Addr, method string, req any, timeout time.Duration) (any, error) {
	resp, err := r.h.ep.CallT(r.p, simnet.Addr(to), method, req, timeout)
	return resp, translate(err)
}

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

// translate maps simnet errors to the transport sentinels.
func translate(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, simnet.ErrTimeout):
		return transport.ErrTimeout
	case errors.Is(err, simnet.ErrUnreachable):
		return transport.ErrUnreachable
	case errors.Is(err, simnet.ErrNoHandler):
		return transport.ErrNoHandler
	case errors.Is(err, simnet.ErrDown):
		return transport.ErrDown
	default:
		return err
	}
}
