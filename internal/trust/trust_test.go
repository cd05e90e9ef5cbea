package trust

import (
	"math"
	"testing"

	"repro/internal/transport"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestDefaultsAndInitialScore(t *testing.T) {
	tb := New()
	if got := tb.InitialScore(); got != 0.5 {
		t.Fatalf("InitialScore = %v, want 0.5", got)
	}
	if got := tb.Score("never-seen"); got != 0.5 {
		t.Fatalf("Score(unseen) = %v, want 0.5", got)
	}
	if tb.Blacklisted("never-seen") {
		t.Fatal("unseen peer must not be blacklisted")
	}
}

func TestAgreeDisagreeDeltasAndCounts(t *testing.T) {
	tb := New()
	a := transport.Addr("n001")

	d, black := tb.Agree(a)
	if !approx(d, 0.05) || black {
		t.Fatalf("Agree = (%v, %v), want (0.05, false)", d, black)
	}
	if got := tb.Score(a); !approx(got, 0.55) {
		t.Fatalf("score after agree = %v, want 0.55", got)
	}

	d, black = tb.Disagree(a)
	if !approx(d, -0.3) || black {
		t.Fatalf("Disagree = (%v, %v), want (-0.3, false)", d, black)
	}

	snap := tb.Snapshot()
	if len(snap) != 1 || snap[0].Agreed != 1 || snap[0].Disagreed != 1 {
		t.Fatalf("snapshot = %+v, want one entry with Agreed=1 Disagreed=1", snap)
	}
}

func TestBlacklistCrossingAndClamp(t *testing.T) {
	tb := New()
	a := transport.Addr("evil")

	// 0.5 -> 0.2: not yet blacklisted (threshold is strict <).
	if _, black := tb.Disagree(a); black {
		t.Fatal("0.2 is not below the 0.2 threshold")
	}
	if tb.Blacklisted(a) {
		t.Fatal("peer at exactly the threshold must not be blacklisted")
	}
	// 0.2 -> 0: crosses into the blacklist, clamped at 0.
	d, black := tb.Disagree(a)
	if !black {
		t.Fatal("second disagree must cross into the blacklist")
	}
	if !approx(d, -0.2) {
		t.Fatalf("clamped delta = %v, want -0.2", d)
	}
	if got := tb.Score(a); !approx(got, 0) {
		t.Fatalf("score = %v, want clamp at 0", got)
	}
	if !tb.Blacklisted(a) {
		t.Fatal("peer must be blacklisted")
	}
	// Further penalties do not re-report the crossing.
	if _, black := tb.ProbeBad(a); black {
		t.Fatal("already-blacklisted peer must not re-report crossing")
	}

	// Redemption via probes: 0 -> 0.15 -> 0.3 clears the blacklist.
	tb.ProbeOK(a)
	if !tb.Blacklisted(a) {
		t.Fatal("0.15 is still below the threshold")
	}
	tb.ProbeOK(a)
	if tb.Blacklisted(a) {
		t.Fatal("0.3 must clear the blacklist")
	}

	snap := tb.Snapshot()
	if snap[0].ProbesOK != 2 || snap[0].ProbesBad != 1 {
		t.Fatalf("probe counts = %+v, want ProbesOK=2 ProbesBad=1", snap[0])
	}
}

func TestScoreClampAtOne(t *testing.T) {
	tb := New()
	a := transport.Addr("saint")
	for i := 0; i < 20; i++ {
		tb.Agree(a)
	}
	if got := tb.Score(a); !approx(got, 1) {
		t.Fatalf("score = %v, want clamp at 1", got)
	}
}

func TestBlacklistedPeersAndWorst(t *testing.T) {
	tb := New()
	sink := func(a transport.Addr, n int) {
		for i := 0; i < n; i++ {
			tb.Disagree(a)
		}
	}
	sink("b", 2) // score 0
	sink("a", 2) // score 0 (tie with b)
	sink("c", 1) // score 0.2, not blacklisted
	tb.Agree("d")

	got := tb.BlacklistedPeers()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("BlacklistedPeers = %v, want [a b]", got)
	}
	worst, ok := tb.WorstBlacklisted()
	if !ok || worst != "a" {
		t.Fatalf("WorstBlacklisted = (%v, %v), want (a, true)", worst, ok)
	}

	// Snapshot is sorted by address.
	snap := tb.Snapshot()
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Node >= snap[i].Node {
			t.Fatalf("snapshot not sorted: %+v", snap)
		}
	}
}

func TestWorstBlacklistedEmpty(t *testing.T) {
	tb := New()
	tb.Agree("x")
	if _, ok := tb.WorstBlacklisted(); ok {
		t.Fatal("no peer is blacklisted")
	}
}
