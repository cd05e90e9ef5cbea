package grid

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/transport"
)

// Unit tests for the submit path's retry decision (client.go):
// backpressure rejections honor the owner's hint plus jitter, routing
// and handoff failures retry after a fixed pause, accepted jobs do not
// retry.

// fixedRuntime satisfies the Rand-only needs of jitterAfter.
type fixedRuntime struct {
	transport.Runtime
	rng *rand.Rand
}

func (f *fixedRuntime) Rand() *rand.Rand { return f.rng }

func TestJitterAfterBounds(t *testing.T) {
	rt := &fixedRuntime{rng: rand.New(rand.NewSource(1))}
	base := 400 * time.Millisecond
	for i := 0; i < 100; i++ {
		got := jitterAfter(rt, base)
		if got < base || got > base+base/2 {
			t.Fatalf("jitter %v outside [%v, %v]", got, base, base+base/2)
		}
	}
	if got := jitterAfter(rt, 0); got <= 0 {
		t.Fatalf("zero hint must still wait, got %v", got)
	}
}

// TestInjectResultRetry pins, per kind of InjectResult, the error the
// caller sees and the wait before the item is re-injected.
func TestInjectResultRetry(t *testing.T) {
	rt := &fixedRuntime{rng: rand.New(rand.NewSource(1))}
	cases := []struct {
		name             string
		res              InjectResult
		wantErr          bool
		hint             time.Duration // > 0: err is a *RetryAfterError carrying it
		minWait, maxWait time.Duration
	}{
		{"accepted", InjectResult{JobID: ids.HashString("j"), Owner: "o:1"}, false, 0, 0, 0},
		{"retry after", InjectResult{RetryAfterMS: 600}, true, 600 * time.Millisecond, 600 * time.Millisecond, 900 * time.Millisecond},
		{"route failure", InjectResult{Err: "route job x: no live owner"}, true, 0, time.Second, time.Second},
		{"handoff timeout", InjectResult{JobID: ids.HashString("j"), Owner: "o:1", Err: "hand job x to owner o:1: " + transport.ErrTimeout.Error()}, true, 0, time.Second, time.Second},
		{"short batch response", InjectResult{Err: "owner o:1: short batch response"}, true, 0, time.Second, time.Second},
	}
	for _, tc := range cases {
		err := tc.res.resultErr()
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: resultErr = %v, want error %v", tc.name, err, tc.wantErr)
		}
		var ra *RetryAfterError
		if errors.As(err, &ra) != (tc.hint > 0) || (ra != nil && ra.After != tc.hint) {
			t.Errorf("%s: resultErr = %v, want retry-after hint %v", tc.name, err, tc.hint)
		}
		if w := retryWait(rt, tc.res); w < tc.minWait || w > tc.maxWait {
			t.Errorf("%s: retryWait = %v, want in [%v, %v]", tc.name, w, tc.minWait, tc.maxWait)
		}
	}
}

// TestAdmitOwnBackoffScales checks admission control: under capacity
// everything is admitted; at and past capacity the rejection hint grows
// with overload depth and saturates at 10x the base.
func TestAdmitOwnBackoffScales(t *testing.T) {
	const base = retryAfterBase
	n := &Node{
		cfg:   Config{OwnerCapacity: 2}.withDefaults(),
		owned: map[ids.ID]*ownedJob{},
	}
	admit := func() (time.Duration, bool) {
		n.mu.Lock()
		defer n.mu.Unlock()
		err := n.admitOwnLocked()
		if err == nil {
			return 0, true
		}
		var ra *RetryAfterError
		if !errors.As(err, &ra) {
			t.Fatalf("admission returned %T, want *RetryAfterError", err)
		}
		return ra.After, false
	}
	fill := func(k int) {
		n.mu.Lock()
		for len(n.owned) < k {
			n.owned[ids.HashString(fmt.Sprintf("j%d", len(n.owned)))] = &ownedJob{}
		}
		n.mu.Unlock()
	}
	if _, ok := admit(); !ok {
		t.Fatal("rejected below capacity")
	}
	fill(2)
	atCap, ok := admit()
	if ok {
		t.Fatal("admitted at capacity")
	}
	if atCap != base {
		t.Fatalf("at-capacity hint %v, want %v", atCap, base)
	}
	fill(5)
	deeper, _ := admit()
	if deeper <= atCap {
		t.Fatalf("hint did not grow with overload: %v <= %v", deeper, atCap)
	}
	fill(200)
	saturated, _ := admit()
	if saturated != 10*base {
		t.Fatalf("saturated hint %v, want %v", saturated, 10*base)
	}
	if _, ok := admit(); ok {
		t.Fatal("admitted while far past capacity")
	}
	// Uncapacitated owners never reject.
	n.cfg.OwnerCapacity = 0
	if _, ok := admit(); !ok {
		t.Fatal("capacity off but admission rejected")
	}
}
