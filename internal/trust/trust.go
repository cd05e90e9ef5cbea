// Package trust implements the peer-reputation half of the sabotage
// tolerance subsystem: a per-node local credibility table fed by quorum
// voting outcomes (internal/grid's redundant execution) and by
// known-answer probe jobs.
//
// The model follows the credibility-based approaches of volunteer
// computing (BOINC-style redundant computing, Sarmenta's sabotage
// tolerance): every peer starts at a neutral score, gains a little for
// each result that agreed with an accepted quorum, loses a lot for each
// dissenting result, and is blacklisted — skipped by matchmaking —
// once its score falls below a threshold. Blacklisted peers can redeem
// themselves only through spot-check probes with known answers.
//
// Tables are strictly local: each owner scores only the peers whose
// replicas it voted on. There is no gossip layer; the paper's grid has
// no global authority to aggregate scores, and local-only reputation
// is immune to badmouthing by other saboteurs.
package trust

import (
	"sort"
	"sync"

	"repro/internal/transport"
)

// The reputation dynamics. Scores are clamped to [0, 1].
const (
	initial       = 0.5  // a never-seen peer's score
	agreeDelta    = 0.05 // a replica agreed with the accepted quorum digest
	disagreeDelta = -0.3 // a replica dissented: one wrong answer costs six right ones
	probeOKDelta  = 0.15 // a probe returned the known answer: redemption is slower than conviction
	probeBadDelta = -0.5 // a probe returned a wrong answer
	// blacklistBelow is the score under which a peer is blacklisted.
	blacklistBelow = 0.2
)

// Entry is one peer's reputation record.
type Entry struct {
	Node        transport.Addr
	Score       float64
	Agreed      int // replicas that matched an accepted quorum
	Disagreed   int // replicas that dissented from an accepted quorum
	ProbesOK    int
	ProbesBad   int
	Blacklisted bool
}

// Table is a node-local reputation table. All methods are safe for
// concurrent use.
type Table struct {
	mu    sync.Mutex
	peers map[transport.Addr]*Entry
}

// New returns an empty table.
func New() *Table {
	return &Table{peers: make(map[transport.Addr]*Entry)}
}

// InitialScore returns the neutral starting score.
func (t *Table) InitialScore() float64 { return initial }

func (t *Table) entryLocked(a transport.Addr) *Entry {
	e, ok := t.peers[a]
	if !ok {
		e = &Entry{Node: a, Score: initial}
		t.peers[a] = e
	}
	return e
}

// bump applies delta to a peer's score, clamped to [0, 1]. It returns
// the applied delta and whether the update crossed INTO the blacklist.
func (t *Table) bump(a transport.Addr, delta float64) (float64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.entryLocked(a)
	before := e.Score
	e.Score += delta
	if e.Score < 0 {
		e.Score = 0
	}
	if e.Score > 1 {
		e.Score = 1
	}
	wasBlack := before < blacklistBelow
	e.Blacklisted = e.Score < blacklistBelow
	return e.Score - before, !wasBlack && e.Blacklisted
}

// Agree credits a peer whose replica matched an accepted quorum. It
// returns the applied score delta and whether the peer just crossed
// into the blacklist (always false here, deltas being positive).
func (t *Table) Agree(a transport.Addr) (delta float64, blacklisted bool) {
	delta, blacklisted = t.bump(a, agreeDelta)
	t.mu.Lock()
	t.peers[a].Agreed++
	t.mu.Unlock()
	return delta, blacklisted
}

// Disagree penalizes a peer whose replica dissented from an accepted
// quorum.
func (t *Table) Disagree(a transport.Addr) (delta float64, blacklisted bool) {
	delta, blacklisted = t.bump(a, disagreeDelta)
	t.mu.Lock()
	t.peers[a].Disagreed++
	t.mu.Unlock()
	return delta, blacklisted
}

// ProbeOK credits a peer that answered a known-answer probe correctly —
// the redemption path for blacklisted nodes.
func (t *Table) ProbeOK(a transport.Addr) (delta float64, blacklisted bool) {
	delta, blacklisted = t.bump(a, probeOKDelta)
	t.mu.Lock()
	t.peers[a].ProbesOK++
	t.mu.Unlock()
	return delta, blacklisted
}

// ProbeBad penalizes a peer that answered a probe wrongly.
func (t *Table) ProbeBad(a transport.Addr) (delta float64, blacklisted bool) {
	delta, blacklisted = t.bump(a, probeBadDelta)
	t.mu.Lock()
	t.peers[a].ProbesBad++
	t.mu.Unlock()
	return delta, blacklisted
}

// Score returns a peer's current score (the initial score for peers
// never seen).
func (t *Table) Score(a transport.Addr) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.peers[a]; ok {
		return e.Score
	}
	return initial
}

// Blacklisted reports whether a peer is currently blacklisted.
func (t *Table) Blacklisted(a transport.Addr) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.peers[a]
	return ok && e.Blacklisted
}

// BlacklistedPeers returns the blacklisted addresses in sorted order —
// the exclusion list trust-aware matchmaking appends.
func (t *Table) BlacklistedPeers() []transport.Addr {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []transport.Addr
	for a, e := range t.peers {
		if e.Blacklisted {
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// WorstBlacklisted returns the blacklisted peer with the lowest score
// (ties broken by address order) — the spot-check probe target. ok is
// false when nobody is blacklisted.
func (t *Table) WorstBlacklisted() (addr transport.Addr, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for a, e := range t.peers {
		if !e.Blacklisted {
			continue
		}
		if !ok || e.Score < t.peers[addr].Score || (e.Score == t.peers[addr].Score && a < addr) {
			addr, ok = a, true
		}
	}
	return addr, ok
}

// Snapshot returns a copy of every entry, sorted by address.
func (t *Table) Snapshot() []Entry {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Entry, 0, len(t.peers))
	for _, e := range t.peers {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}
