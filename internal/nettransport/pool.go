package nettransport

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
)

// Client-side connection pool: one persistent framed connection per
// peer, multiplexing concurrent requests by ID. A connection is dialed
// on first use, re-dialed after an error, and reaped after sitting
// idle with no in-flight calls.

// pool holds this host's outbound connections.
type pool struct {
	h  *Host
	mu sync.Mutex
	// peers is keyed by destination address. Entries serialize dialing
	// per peer so a dead destination's dial timeout never blocks calls
	// to other peers.
	peers map[transport.Addr]*peerEntry

	// dials counts actual TCP dial attempts (tests assert that backoff
	// keeps this far below the call count against a dead peer).
	dials atomic.Int64
}

type peerEntry struct {
	mu sync.Mutex
	pc *peerConn
	// Reconnect backoff: after a failed dial, further dials are
	// suppressed until nextDial so a dead peer is not hammered in a
	// tight loop. backoff doubles per consecutive failure (jittered,
	// capped at settings.dialBackoffMax) and resets on success.
	backoff  time.Duration
	nextDial time.Time
}

func newPool(h *Host) *pool {
	return &pool{h: h, peers: make(map[transport.Addr]*peerEntry)}
}

// get returns a live pooled connection to addr, dialing if needed.
// reused reports whether the connection predates this call — the
// caller may retry once on a fresh dial if a reused conn turns out to
// have died since its last use (peer restart).
func (p *pool) get(addr transport.Addr, dialTimeout time.Duration) (pc *peerConn, reused bool, err error) {
	p.mu.Lock()
	e := p.peers[addr]
	if e == nil {
		e = &peerEntry{}
		p.peers[addr] = e
	}
	p.mu.Unlock()

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.pc != nil && !e.pc.isClosed() {
		return e.pc, true, nil
	}
	bo := p.h.set.dialBackoff
	if bo > 0 && time.Now().Before(e.nextDial) {
		return nil, false, fmt.Errorf("%w: dial to %s suppressed for %s (reconnect backoff)",
			transport.ErrUnreachable, addr, time.Until(e.nextDial).Round(time.Millisecond))
	}
	pc, err = p.dial(addr, dialTimeout)
	if err != nil {
		if bo > 0 {
			if e.backoff == 0 {
				e.backoff = bo
			} else {
				e.backoff *= 2
				if e.backoff > p.h.set.dialBackoffMax {
					e.backoff = p.h.set.dialBackoffMax
				}
			}
			// Up to 25% jitter so many callers' retries decorrelate.
			e.nextDial = time.Now().Add(e.backoff + time.Duration(rand.Int63n(int64(e.backoff)/4+1)))
		}
		return nil, false, err
	}
	e.backoff = 0
	e.nextDial = time.Time{}
	e.pc = pc
	return pc, false, nil
}

// discard drops pc from the pool if it is still the cached connection
// for its address (a racing redial may already have replaced it).
func (p *pool) discard(pc *peerConn) {
	p.mu.Lock()
	e := p.peers[pc.addr]
	p.mu.Unlock()
	if e == nil {
		return
	}
	e.mu.Lock()
	if e.pc == pc {
		e.pc = nil
	}
	e.mu.Unlock()
	pc.close(transport.ErrUnreachable)
}

func (p *pool) dial(addr transport.Addr, timeout time.Duration) (*peerConn, error) {
	p.dials.Add(1)
	conn, err := net.DialTimeout("tcp", string(addr), timeout)
	if err != nil {
		return nil, err
	}
	if ro := p.h.obsv.Load(); ro != nil {
		conn = &countingConn{Conn: conn, in: ro.bytesIn, out: ro.bytesOut}
	}
	pc := &peerConn{
		p:     p,
		addr:  addr,
		conn:  conn,
		calls: make(map[uint64]chan *frame),
	}
	pc.touch()
	go pc.readLoop()
	return pc, nil
}

// closeAll tears down every pooled connection (host shutdown). Pending
// calls fail with ErrDown.
func (p *pool) closeAll() {
	p.mu.Lock()
	entries := make([]*peerEntry, 0, len(p.peers))
	for _, e := range p.peers {
		entries = append(entries, e)
	}
	p.mu.Unlock()
	for _, e := range entries {
		e.mu.Lock()
		pc := e.pc
		e.pc = nil
		e.mu.Unlock()
		if pc != nil {
			pc.close(transport.ErrDown)
		}
	}
}

// reapLoop closes connections idle past the host's idleTimeout with no
// in-flight calls. It exits when the host closes.
func (p *pool) reapLoop() {
	period := p.h.set.idleTimeout / 2
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-p.h.done:
			return
		case <-t.C:
		}
		cutoff := time.Now().Add(-p.h.set.idleTimeout).UnixNano()
		p.mu.Lock()
		entries := make([]*peerEntry, 0, len(p.peers))
		for _, e := range p.peers {
			entries = append(entries, e)
		}
		p.mu.Unlock()
		for _, e := range entries {
			e.mu.Lock()
			pc := e.pc
			if pc != nil && pc.lastUsed.Load() < cutoff && pc.pendingCount() == 0 {
				e.pc = nil
				e.mu.Unlock()
				pc.close(transport.ErrDown)
				continue
			}
			e.mu.Unlock()
		}
	}
}

// peerConn is one pooled connection.
type peerConn struct {
	p    *pool
	addr transport.Addr
	conn net.Conn
	wmu  sync.Mutex // serializes frame writes

	mu     sync.Mutex
	calls  map[uint64]chan *frame
	closed bool
	reason error // why the conn closed; nil while open

	nextID   atomic.Uint64
	lastUsed atomic.Int64 // unix nanos of last call start
}

func (pc *peerConn) touch() { pc.lastUsed.Store(time.Now().UnixNano()) }

func (pc *peerConn) isClosed() bool {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.closed
}

func (pc *peerConn) pendingCount() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return len(pc.calls)
}

// call sends one request and waits for its response or the timeout.
// wrote reports whether the request made it onto the wire — a false
// return means the peer cannot have seen it, so the caller may safely
// retry on a fresh connection.
func (pc *peerConn) call(method string, from transport.Addr, req any, timeout time.Duration, ft transport.Fault) (resp *frame, wrote bool, err error) {
	pc.touch()
	id := pc.nextID.Add(1)
	ch := make(chan *frame, 1)
	pc.mu.Lock()
	if pc.closed {
		pc.mu.Unlock()
		return nil, false, transport.ErrUnreachable
	}
	pc.calls[id] = ch
	pc.mu.Unlock()

	f := &frame{
		Kind: frameReq, ID: id, Method: method, From: string(from),
		TimeoutMS: timeout.Milliseconds(), Payload: req,
	}
	if err := writeFrameFault(pc.conn, &pc.wmu, f, time.Now().Add(timeout), pc.p.h.set.maxFrame, ft); err != nil {
		pc.unregister(id)
		pc.p.discard(pc)
		// A chaos reset put part of the frame on the wire, so the peer
		// may have seen bytes: report wrote=true to veto the
		// reconnect-once retry (at-most-once must hold under chaos too).
		return nil, errors.Is(err, errChaosReset), transport.ErrUnreachable
	}

	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case rf, ok := <-ch:
		if !ok {
			// Connection failed under us; the close reason is terminal.
			return nil, true, pc.closeReason()
		}
		return rf, true, nil
	case <-t.C:
		pc.unregister(id)
		return nil, true, transport.ErrTimeout
	case <-pc.p.h.done:
		pc.unregister(id)
		return nil, true, transport.ErrDown
	}
}

func (pc *peerConn) unregister(id uint64) {
	pc.mu.Lock()
	delete(pc.calls, id)
	pc.mu.Unlock()
}

// readLoop dispatches responses to waiting calls until the connection
// dies, then fails everything still pending.
func (pc *peerConn) readLoop() {
	br := bufio.NewReader(pc.conn)
	for {
		f, err := readFrame(br, pc.p.h.set.maxFrame)
		if err != nil {
			pc.p.discard(pc)
			return
		}
		if f.ID == 0 && f.ErrKind == errDown {
			// Connection-scoped error: the peer declared itself down (or
			// lost frame sync decoding a request). Nothing further will
			// be answered on this stream.
			pc.close(remoteDownError{})
			return
		}
		pc.mu.Lock()
		ch := pc.calls[f.ID]
		delete(pc.calls, f.ID)
		pc.mu.Unlock()
		if ch != nil {
			ch <- f
		}
	}
}

// close fails all pending calls with reason and shuts the socket. Safe
// to call more than once.
func (pc *peerConn) close(reason error) {
	pc.mu.Lock()
	if pc.closed {
		pc.mu.Unlock()
		return
	}
	pc.closed = true
	pc.reason = reason
	waiting := pc.calls
	pc.calls = make(map[uint64]chan *frame)
	pc.mu.Unlock()
	pc.conn.Close()
	for _, ch := range waiting {
		close(ch)
	}
}

func (pc *peerConn) closeReason() error {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.reason != nil {
		return pc.reason
	}
	return transport.ErrUnreachable
}

// remoteDownError marks a peer that answered "I am closed" — distinct
// from a connection failure so the caller maps it to ErrDown rather
// than ErrUnreachable.
type remoteDownError struct{}

func (remoteDownError) Error() string { return "remote host is down" }
