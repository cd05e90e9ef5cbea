package nettransport

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"repro/internal/chord"
	"repro/internal/ids"
	"repro/internal/rntree"
)

// fuzzMaxFrame is the decoder's length bound under fuzzing: small, so
// mutated prefixes cross it often.
const fuzzMaxFrame = 4096

// countingReader counts the bytes a decoder took from its input.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// FuzzReadFrame feeds arbitrary byte streams to the frame decoder. It
// must never panic, and must never read (so never allocate) a body
// past the length bound: a zero or over-bound prefix is rejected from
// its four bytes alone, and an accepted frame consumes exactly its
// prefix's length.
func FuzzReadFrame(f *testing.F) {
	for _, fr := range []*frame{
		{Kind: frameReq, ID: 1, Method: chord.MStep, From: "127.0.0.1:7001", TimeoutMS: 3000,
			Payload: chord.StepReq{Key: ids.HashString("fz")}},
		{Kind: frameResp, ID: 1, Payload: chord.StateResp{
			Self:  chord.Ref{ID: ids.HashString("a"), Addr: "127.0.0.1:7001"},
			Succs: []chord.Ref{{ID: ids.HashString("b"), Addr: "127.0.0.1:7002"}},
		}},
		{Kind: frameReq, ID: 2, Method: rntree.MSearch, From: "127.0.0.1:7002", Payload: rntree.SearchReq{K: 4, Budget: 64}},
		{Kind: frameResp, ID: 2, ErrKind: errHandler, ErrMsg: "boom"},
	} {
		b, err := encodeFrame(fr, fuzzMaxFrame)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	// The hostile and empty prefixes of TestFrameLengthBound, and a
	// prefix one past the bound with that many body bytes behind it.
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{0, 0, 0, 0})
	over := make([]byte, 4+fuzzMaxFrame+1)
	binary.BigEndian.PutUint32(over, fuzzMaxFrame+1)
	f.Add(over)
	f.Fuzz(func(t *testing.T, data []byte) {
		in := &countingReader{r: bytes.NewReader(data)}
		fr, err := readFrame(in, fuzzMaxFrame)
		if len(data) < 4 {
			if err == nil {
				t.Fatalf("decoded a frame from %d bytes", len(data))
			}
			return
		}
		n := binary.BigEndian.Uint32(data[:4])
		if n == 0 || n > fuzzMaxFrame {
			if err == nil || in.n != 4 {
				t.Fatalf("prefix %d: err %v after reading %d bytes, want a rejection from the prefix alone", n, err, in.n)
			}
			return
		}
		if in.n > 4+int(n) {
			t.Fatalf("prefix %d: read %d bytes", n, in.n)
		}
		if err == nil && (fr == nil || in.n != 4+int(n)) {
			t.Fatalf("prefix %d: accepted a frame after reading %d bytes", n, in.n)
		}
	})
}
