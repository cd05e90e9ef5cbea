// Package nettransport implements transport.Host over real TCP
// sockets. The same Chord, CAN, RN-Tree, and grid protocol code that
// runs under the simulator runs over this transport in live
// deployments (cmd/gridnode); only the Host/Runtime binding changes.
//
// The wire protocol is a length-prefixed framed codec over persistent
// pooled connections (see frame.go): one connection per peer carries
// many concurrent requests, paired to responses by ID, with per-call
// deadlines carried in the request envelope, idle reaping on both
// sides, and reconnect-on-error.
package nettransport

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
)

// DefaultCallTimeout bounds Call when no explicit timeout is given.
const DefaultCallTimeout = 5 * time.Second

// Opts tunes a Host. The zero value injects no faults.
type Opts struct {
	// Chaos, when set, decides a fault for each of this host's outbound
	// calls (DESIGN.md §12; gridnode -chaos builds it from a
	// faultinject spec). Faults are client-side: a schedule describes
	// what one process does to the network. Nil injects nothing.
	Chaos transport.FaultInjector
}

// settings are a Host's fixed tunables. A zero field selects its
// default; only this package's tests set one, through listen.
type settings struct {
	// idleTimeout reaps connections (pooled client conns and inbound
	// server conns) with no traffic and no in-flight calls (60s).
	idleTimeout time.Duration
	// closeDrain bounds how long Close waits for the accept loop and
	// in-flight handlers to finish before returning (2s).
	closeDrain time.Duration
	// maxFrame bounds a single frame's encoded size in both directions;
	// the reader rejects larger length prefixes before allocating
	// (64 MB).
	maxFrame int
	// breakerThreshold is how many consecutive transport-level failures
	// open a peer's circuit breaker (5; negative disables breakers
	// entirely). See breaker.go.
	breakerThreshold int
	// breakerCooldown is the first open window before a half-open probe
	// is admitted (1s); each failed probe doubles it up to
	// breakerMaxCooldown (30s), with jitter.
	breakerCooldown    time.Duration
	breakerMaxCooldown time.Duration
	// dialBackoff spaces reconnect attempts to a peer whose dials fail:
	// after a failed dial, further dials to that peer are suppressed
	// (failing fast as unreachable) for an exponentially growing,
	// jittered window — 100ms doubling up to dialBackoffMax (5s), reset
	// by any successful dial. Negative disables.
	dialBackoff    time.Duration
	dialBackoffMax time.Duration
}

func (s settings) withDefaults() settings {
	if s.idleTimeout == 0 {
		s.idleTimeout = 60 * time.Second
	}
	if s.closeDrain == 0 {
		s.closeDrain = 2 * time.Second
	}
	if s.maxFrame == 0 {
		s.maxFrame = defaultMaxFrame
	}
	if s.breakerThreshold == 0 {
		s.breakerThreshold = 5
	}
	if s.breakerCooldown == 0 {
		s.breakerCooldown = time.Second
	}
	if s.breakerMaxCooldown == 0 {
		s.breakerMaxCooldown = 30 * time.Second
	}
	if s.dialBackoff == 0 {
		s.dialBackoff = 100 * time.Millisecond
	}
	if s.dialBackoffMax == 0 {
		s.dialBackoffMax = 5 * time.Second
	}
	return s
}

// Host is one process's TCP attachment to the grid.
type Host struct {
	ln    net.Listener
	addr  transport.Addr
	start time.Time
	chaos transport.FaultInjector
	set   settings
	pool  *pool
	brk   *breakerSet
	done  chan struct{} // closed when the host closes

	mu       sync.Mutex
	handlers map[string]transport.Handler
	closed   bool
	conns    map[net.Conn]struct{} // live inbound connections
	wg       sync.WaitGroup        // Go() activities (may be long-lived)
	connWg   sync.WaitGroup        // accept loop + inbound conns + in-flight handlers

	obsv atomic.Pointer[rpcObs]
}

// rpcObs holds the transport's resolved instruments plus a per-method
// cache, so the per-call hot path is two sync.Map loads rather than
// registry lookups that re-render labeled metric names.
type rpcObs struct {
	reg      *obs.Registry
	client   sync.Map // method -> *methodObs
	server   sync.Map // method -> *methodObs
	bytesIn  *obs.Counter
	bytesOut *obs.Counter
}

type methodObs struct {
	calls *obs.Counter
	errs  *obs.Counter
	secs  *obs.Histogram
}

func (ro *rpcObs) method(cache *sync.Map, side, method string) *methodObs {
	if m, ok := cache.Load(method); ok {
		return m.(*methodObs)
	}
	m := &methodObs{
		calls: ro.reg.Counter("rpc_"+side+"_calls_total", "method", method),
		errs:  ro.reg.Counter("rpc_"+side+"_errors_total", "method", method),
		secs:  ro.reg.Histogram("rpc_"+side+"_seconds", obs.DefBucketsSeconds, "method", method),
	}
	actual, _ := cache.LoadOrStore(method, m)
	return actual.(*methodObs)
}

// SetObs attaches an observability sink: per-method client/server call
// counts, error counts, latency histograms, and total bytes moved in
// each direction. Passing nil detaches. Safe to call at any time;
// connections opened before attachment keep counting with their
// original (possibly nil) sinks.
func (h *Host) SetObs(o *obs.Obs) {
	reg := o.Registry()
	if reg == nil {
		h.obsv.Store(nil)
		return
	}
	h.obsv.Store(&rpcObs{
		reg:      reg,
		bytesIn:  reg.Counter("rpc_bytes_total", "dir", "in"),
		bytesOut: reg.Counter("rpc_bytes_total", "dir", "out"),
	})
	reg.GaugeFunc("rpc_breakers_open", func() float64 {
		return float64(h.brk.openCount())
	})
}

// countingConn counts bytes crossing a net.Conn into obs counters.
type countingConn struct {
	net.Conn
	in, out *obs.Counter
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.Add(int64(n))
	return n, err
}

// Listen binds a pooled host to a TCP address ("127.0.0.1:0" picks a
// free port; Addr reports the actual one).
func Listen(addr string) (*Host, error) {
	return ListenOpts(addr, Opts{})
}

// ListenOpts binds a host with explicit transport options.
func ListenOpts(addr string, opts Opts) (*Host, error) {
	return listen(addr, opts, settings{})
}

// listen is ListenOpts with the fixed tunables given too.
func listen(addr string, opts Opts, set settings) (*Host, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("nettransport: listen %s: %w", addr, err)
	}
	h := &Host{
		ln:       ln,
		addr:     transport.Addr(ln.Addr().String()),
		start:    time.Now(),
		chaos:    opts.Chaos,
		set:      set.withDefaults(),
		done:     make(chan struct{}),
		handlers: make(map[string]transport.Handler),
		conns:    make(map[net.Conn]struct{}),
	}
	h.pool = newPool(h)
	h.brk = newBreakerSet(h)
	go h.pool.reapLoop()
	h.connWg.Add(1)
	go h.acceptLoop()
	return h, nil
}

// Addr implements transport.Host.
func (h *Host) Addr() transport.Addr { return h.addr }

// Up implements transport.Host.
func (h *Host) Up() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return !h.closed
}

// Handle implements transport.Host.
func (h *Host) Handle(method string, fn transport.Handler) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.handlers[method] = fn
}

// Handles reports whether a handler is registered for method. Every
// peer of a deployment registers the same set, so gridnode and gridctl
// chaos use it to refuse a -chaos rule naming a method no peer serves.
func (h *Host) Handles(method string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	_, ok := h.handlers[method]
	return ok
}

// Go implements transport.Host: fn runs on its own goroutine with a
// live runtime. Activities are commonly infinite loops, so Close does
// not wait for them (unlike in-flight RPC handlers, which it drains).
func (h *Host) Go(name string, fn func(rt transport.Runtime)) {
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		fn(h.newRuntime())
	}()
}

// Close shuts the host down: the listener stops, pooled and inbound
// connections close (failing their pending calls fast), and the accept
// loop plus in-flight handlers are drained — bounded by
// settings.closeDrain — before Close returns, so a caller may immediately
// re-listen on the same address without racing the old host's
// goroutines.
func (h *Host) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	conns := make([]net.Conn, 0, len(h.conns))
	for c := range h.conns {
		conns = append(conns, c)
	}
	h.mu.Unlock()
	close(h.done)
	h.ln.Close()
	h.pool.closeAll()
	for _, c := range conns {
		c.Close()
	}
	drained := make(chan struct{})
	go func() {
		h.connWg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(h.set.closeDrain):
	}
}

func (h *Host) isClosed() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.closed
}

// registerConn tracks an inbound connection for teardown on Close. It
// reports false (and closes the conn) when the host already closed.
func (h *Host) registerConn(conn net.Conn) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		conn.Close()
		return false
	}
	h.conns[conn] = struct{}{}
	return true
}

func (h *Host) dropConn(conn net.Conn) {
	h.mu.Lock()
	delete(h.conns, conn)
	h.mu.Unlock()
}

func (h *Host) newRuntime() *runtime { return &runtime{h: h} }

func (h *Host) acceptLoop() {
	defer h.connWg.Done()
	for {
		conn, err := h.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if !h.registerConn(conn) {
			return
		}
		h.connWg.Add(1)
		go func() {
			defer h.connWg.Done()
			h.serveConn(conn)
		}()
	}
}

// serveConn demultiplexes one inbound framed connection: requests are
// served concurrently (each on its own goroutine), responses are
// written back under the connection's write lock. The loop exits when
// the peer hangs up, the host closes, or the connection sits idle past
// idleTimeout with no handler in flight.
func (h *Host) serveConn(rawConn net.Conn) {
	defer func() {
		h.dropConn(rawConn)
		rawConn.Close()
	}()
	conn := rawConn
	if ro := h.obsv.Load(); ro != nil {
		conn = &countingConn{Conn: conn, in: ro.bytesIn, out: ro.bytesOut}
	}
	br := bufio.NewReader(conn)
	var wmu sync.Mutex
	var inflight atomic.Int64
	for {
		_ = conn.SetReadDeadline(time.Now().Add(h.set.idleTimeout))
		f, err := readFrame(br, h.set.maxFrame)
		if err != nil {
			var nerr net.Error
			if errors.As(err, &nerr) && nerr.Timeout() {
				if inflight.Load() > 0 {
					continue // a slow handler is not idleness
				}
				return // idle reap
			}
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || h.isClosed() {
				return
			}
			// Decode failure on a live stream: frame sync is gone, so
			// nothing further can be answered. Say so (connection-scoped
			// error, ID 0) before closing — otherwise every call pending
			// on this connection blocks out its full deadline and
			// reports a timeout for what is really an unusable peer.
			_ = writeFrame(conn, &wmu, &frame{
				Kind: frameResp, ErrKind: errDown, ErrMsg: "bad frame: " + err.Error(),
			}, time.Now().Add(time.Second), h.set.maxFrame)
			return
		}
		if f.Kind != frameReq {
			continue
		}
		if h.isClosed() {
			_ = writeFrame(conn, &wmu, &frame{
				Kind: frameResp, ID: f.ID, ErrKind: errDown, ErrMsg: "host closed",
			}, time.Now().Add(time.Second), h.set.maxFrame)
			continue
		}
		inflight.Add(1)
		h.connWg.Add(1)
		go func(f *frame, recv time.Time) {
			defer h.connWg.Done()
			defer inflight.Add(-1)
			h.serveRequest(conn, &wmu, f, recv)
		}(f, time.Now())
	}
}

// serveRequest runs one handler and writes its response. The response
// write deadline comes from the caller's own timeout (carried in the
// envelope), so a handler slower than any fixed server-side constant
// still gets its reply delivered as long as the caller is waiting.
func (h *Host) serveRequest(conn net.Conn, wmu *sync.Mutex, f *frame, recv time.Time) {
	timeout := time.Duration(f.TimeoutMS) * time.Millisecond
	if timeout <= 0 {
		timeout = DefaultCallTimeout
	}
	deadline := recv.Add(timeout)
	h.mu.Lock()
	fn, ok := h.handlers[f.Method]
	closed := h.closed
	h.mu.Unlock()
	resp := &frame{Kind: frameResp, ID: f.ID}
	if closed {
		resp.ErrKind = errDown
		resp.ErrMsg = "host closed"
		_ = writeFrame(conn, wmu, resp, deadline, h.set.maxFrame)
		return
	}
	ro := h.obsv.Load()
	var mo *methodObs
	var began time.Time
	if ro != nil {
		mo = ro.method(&ro.server, "server", f.Method)
		mo.calls.Inc()
		began = time.Now()
	}
	if !ok {
		resp.ErrKind = errNoHandler
		resp.ErrMsg = f.Method
	} else {
		out, err := fn(h.newRuntime(), transport.Addr(f.From), f.Payload)
		if err != nil {
			resp.ErrKind = errHandler
			resp.ErrMsg = err.Error()
		} else {
			resp.Payload = out
		}
	}
	if mo != nil {
		mo.secs.Observe(time.Since(began).Seconds())
		if resp.ErrKind != errNone {
			mo.errs.Inc()
		}
	}
	if !time.Now().Before(deadline) {
		return // the caller has given up; nobody is reading this reply
	}
	_ = writeFrame(conn, wmu, resp, deadline, h.set.maxFrame)
}

// runtime is the live (wall-clock) transport.Runtime.
type runtime struct {
	h   *Host
	rng *rand.Rand
}

func (r *runtime) Now() time.Duration    { return time.Since(r.h.start) }
func (r *runtime) Sleep(d time.Duration) { time.Sleep(d) }

// Rand seeds on first use: every request served gets a runtime, few
// draw from it, and a source is 5 KB to allocate and fill.
func (r *runtime) Rand() *rand.Rand {
	if r.rng == nil {
		r.rng = rand.New(rand.NewSource(rand.Int63()))
	}
	return r.rng
}

// Wait implements transport.Runtime: the goroutine parks on a channel
// the broadcast closes, bounded by a timer.
func (r *runtime) Wait(c *transport.Cond, max time.Duration) bool {
	ch := make(chan struct{})
	return c.Park(func() { close(ch) }, func() bool {
		var expired <-chan time.Time
		if max != transport.Forever {
			t := time.NewTimer(max)
			defer t.Stop()
			expired = t.C
		}
		select {
		case <-ch:
			return true
		case <-expired:
			return false
		}
	})
}

func (r *runtime) Call(to transport.Addr, method string, req any) (any, error) {
	return r.CallT(to, method, req, DefaultCallTimeout)
}

func (r *runtime) CallT(to transport.Addr, method string, req any, timeout time.Duration) (any, error) {
	if timeout <= 0 {
		timeout = DefaultCallTimeout
	}
	if !r.h.Up() {
		return nil, transport.ErrDown
	}
	var mo *methodObs
	ro := r.h.obsv.Load()
	if ro != nil {
		mo = ro.method(&ro.client, "client", method)
		mo.calls.Inc()
		began := time.Now()
		defer func() { mo.secs.Observe(time.Since(began).Seconds()) }()
	}
	// Breaker gate: an open circuit fails the call instantly (as
	// transient unreachable, so classified retries re-route) instead of
	// burning a dial or call timeout on a peer known to be failing.
	if err := r.h.brk.allow(to); err != nil {
		mo.errCount()
		return nil, err
	}
	// Chaos gate: refuse, drop and an over-budget delay resolve here
	// without touching the network; reset and duplicate ride down into
	// the write path.
	var ft transport.Fault
	if c := r.h.chaos; c != nil {
		ft = c.Fate(r.h.addr, to, method, false)
	}
	switch {
	case ft.Refuse:
		r.h.brk.record(to, false)
		mo.errCount()
		return nil, fmt.Errorf("%w: %s: connection refused (chaos)", transport.ErrUnreachable, to)
	case ft.Drop || ft.Delay >= timeout:
		r.h.sleepInterruptible(timeout)
		r.h.brk.record(to, false)
		mo.errCount()
		return nil, transport.ErrTimeout
	case ft.Delay > 0:
		r.h.sleepInterruptible(ft.Delay)
		timeout -= ft.Delay
	}
	rf, err := r.h.callPooled(to, method, req, timeout, ft)
	// Only transport-level outcomes feed the breaker: a handler error
	// or missing handler is an answering, healthy peer.
	r.h.brk.record(to, err == nil && rf.ErrKind != errDown)
	if err != nil {
		mo.errCount()
		return nil, mapCallErr(err)
	}
	switch rf.ErrKind {
	case errNoHandler:
		mo.errCount()
		return nil, fmt.Errorf("%w: %s on %s", transport.ErrNoHandler, rf.ErrMsg, to)
	case errHandler:
		mo.errCount()
		return nil, errors.New(rf.ErrMsg)
	case errDown:
		mo.errCount()
		return nil, fmt.Errorf("%w: %s reported: %s", transport.ErrDown, to, rf.ErrMsg)
	}
	return rf.Payload, nil
}

// sleepInterruptible sleeps for d or until the host closes.
func (h *Host) sleepInterruptible(d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-h.done:
	}
}

// callPooled performs one call over the peer's pooled connection,
// reconnecting once when a previously-pooled connection turns out to
// have died before the request reached the wire (peer restart between
// calls).
func (h *Host) callPooled(to transport.Addr, method string, req any, timeout time.Duration, ft transport.Fault) (*frame, error) {
	pc, reused, err := h.pool.get(to, timeout)
	if err != nil {
		return nil, err
	}
	rf, wrote, err := pc.call(method, h.addr, req, timeout, ft)
	if err != nil && !wrote && reused {
		pc, _, err2 := h.pool.get(to, timeout)
		if err2 != nil {
			return nil, err2
		}
		rf, _, err = pc.call(method, h.addr, req, timeout, ft)
	}
	return rf, err
}

// mapCallErr translates connection-level failures into the transport
// sentinels protocol code branches on.
func mapCallErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, transport.ErrTimeout),
		errors.Is(err, transport.ErrUnreachable),
		errors.Is(err, transport.ErrDown),
		errors.Is(err, transport.ErrNoHandler):
		return err
	}
	if _, ok := err.(remoteDownError); ok {
		return fmt.Errorf("%w: peer reported closed", transport.ErrDown)
	}
	var nerr net.Error
	if errors.As(err, &nerr) && nerr.Timeout() {
		return transport.ErrTimeout
	}
	return fmt.Errorf("%w: %v", transport.ErrUnreachable, err)
}

// errCount increments the method's error counter; nil-safe so call
// sites need no obs-enabled guard.
func (m *methodObs) errCount() {
	if m != nil {
		m.errs.Inc()
	}
}
