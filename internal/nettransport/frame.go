package nettransport

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/transport"
)

// The framed codec: every message on a connection is one
// length-prefixed frame (4-byte big-endian length, then a gob-encoded
// frame struct). Frames are self-delimiting, so one persistent
// connection carries many concurrent requests in both directions;
// request IDs pair responses with callers. Each frame is encoded with
// a fresh gob encoder — type descriptors are re-sent per frame, a few
// hundred bytes of overhead that buys frame independence: a decode
// failure poisons one frame boundary, not an entire long-lived stream
// state.

// Frame kinds.
const (
	frameReq  = 1
	frameResp = 2
)

// Response error kinds carried in frame.ErrKind.
const (
	errNone      = 0
	errNoHandler = 1 // no handler registered for the method
	errHandler   = 2 // handler returned an error
	errDown      = 3 // peer is not serving: host closed or stream unusable
)

// defaultMaxFrame bounds a single frame's payload unless settings.maxFrame
// overrides it (checkpoint payloads cap in the low MBs). The reader
// enforces the bound on the length prefix alone, before any
// allocation, so a corrupt or hostile peer cannot make us allocate an
// arbitrarily large buffer.
const defaultMaxFrame = 64 << 20

// frame is the unit of the wire protocol.
type frame struct {
	Kind byte
	// ID pairs a response with its request. ID 0 is reserved for
	// connection-scoped error responses (a decode failure leaves the
	// server unable to name the request it was parsing).
	ID     uint64
	Method string // request only
	From   string // request only
	// TimeoutMS is the caller's remaining time budget. The server
	// derives the response write deadline from it, so a slow handler's
	// reply is bounded by what the caller asked for — not by a fixed
	// server-side constant.
	TimeoutMS int64
	Payload   any
	ErrMsg    string // response only
	ErrKind   int    // response only
}

// encodeFrame renders f as [length][gob bytes], ready for one write.
func encodeFrame(f *frame, max int) ([]byte, error) {
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 0}) // length placeholder
	if err := gob.NewEncoder(&buf).Encode(f); err != nil {
		return nil, fmt.Errorf("nettransport: encode frame: %w", err)
	}
	b := buf.Bytes()
	n := len(b) - 4
	if n > max {
		return nil, fmt.Errorf("nettransport: frame too large (%d bytes, max %d)", n, max)
	}
	binary.BigEndian.PutUint32(b[:4], uint32(n))
	return b, nil
}

// writeFrame sends one frame under the connection's write lock with the
// given deadline. A zero deadline means no deadline.
func writeFrame(conn net.Conn, wmu *sync.Mutex, f *frame, deadline time.Time, max int) error {
	return writeFrameFault(conn, wmu, f, deadline, max, transport.Fault{})
}

// errChaosReset marks a request that was cut off mid-frame by the
// chaos layer: part of it reached the wire, so unlike an ordinary
// write failure the peer may have observed bytes and the call must not
// be retried as never-sent.
var errChaosReset = errors.New("nettransport: connection reset mid-frame (chaos)")

// writeFrameFault is writeFrame with an injected fault applied:
// wf.Reset truncates the frame mid-body and kills the connection;
// wf.Duplicate writes the frame twice, and the reader drops the reply
// to the call ID it no longer waits on.
func writeFrameFault(conn net.Conn, wmu *sync.Mutex, f *frame, deadline time.Time, max int, wf transport.Fault) error {
	b, err := encodeFrame(f, max)
	if err != nil {
		return err
	}
	wmu.Lock()
	defer wmu.Unlock()
	_ = conn.SetWriteDeadline(deadline)
	if wf.Reset {
		// Claim the full length, deliver roughly half the body, then
		// slam the connection shut — the receiver sees a short read
		// inside a frame, exactly what a peer crash mid-send produces.
		cut := len(b) * 2 / 3
		if cut < 5 {
			cut = len(b)
		}
		_, _ = conn.Write(b[:cut])
		conn.Close()
		return errChaosReset
	}
	if wf.Duplicate {
		b = append(b, b...)
	}
	_, err = conn.Write(b)
	return err
}

// readFrame reads one length-prefixed frame from r, rejecting any
// length prefix beyond max before allocating for the body.
func readFrame(r io.Reader, max int) (*frame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > uint32(max) {
		return nil, fmt.Errorf("nettransport: bad frame length %d (max %d)", n, max)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	var f frame
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&f); err != nil {
		return nil, fmt.Errorf("nettransport: decode frame: %w", err)
	}
	return &f, nil
}
