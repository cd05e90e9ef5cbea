package can

import (
	"sort"
	"time"

	"repro/internal/transport"
)

// gossipLoop periodically exchanges state with every neighbor, expires
// silent ones, performs takeovers, and refreshes the directional load
// estimates used by the pushing variant.
func (n *Node) gossipLoop(rt transport.Runtime) {
	for {
		rt.Sleep(transport.Jitter(rt, gossipEvery))
		n.mu.Lock()
		joined := n.joined
		n.mu.Unlock()
		if !joined {
			continue
		}
		n.gossipOnce(rt)
		n.expireAndTakeover(rt)
		n.updateDirLoad()
	}
}

// gossipOnce sends our state (plus a digest of our neighbors) to every
// neighbor and absorbs the responses.
func (n *Node) gossipOnce(rt transport.Runtime) {
	n.mu.Lock()
	me := n.infoLocked()
	digest := n.digestLocked()
	addrs := n.sortedNeighborAddrsLocked()
	n.mu.Unlock()

	for _, addr := range addrs {
		raw, err := rt.Call(addr, MGossip, GossipReq{From: me, Digest: digest})
		if err != nil {
			continue
		}
		resp := raw.(GossipResp)
		n.absorb(rt.Now(), resp.From, nil)
	}
}

func (n *Node) digestLocked() []Brief {
	var out []Brief
	for _, addr := range n.sortedNeighborAddrsLocked() {
		nb := n.neighbors[addr]
		if nb.dead != 0 {
			continue
		}
		out = append(out, Brief{Ref: nb.info.Ref, Zones: nb.info.Zones})
	}
	return out
}

// absorb folds a peer's self-description (and optionally its neighbor
// digest) into our neighbor table.
func (n *Node) absorb(now time.Duration, info Info, digest []Brief) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if info.Ref.Addr != n.host.Addr() && n.abutsAnyLocked(info.Zones) {
		n.resolveOverlapLocked(info)
		n.neighbors[info.Ref.Addr] = &neighbor{info: info, digest: digest, lastSeen: now}
	} else {
		delete(n.neighbors, info.Ref.Addr)
	}
	// Learn two-hop nodes that now abut us (post-split/takeover repair).
	for _, b := range digest {
		if b.Ref.Addr == n.host.Addr() {
			continue
		}
		if _, known := n.neighbors[b.Ref.Addr]; known {
			continue
		}
		if n.abutsAnyLocked(b.Zones) {
			n.neighbors[b.Ref.Addr] = &neighbor{
				info:     Info{Ref: b.Ref, Zones: b.Zones},
				lastSeen: now,
			}
		}
	}
}

// resolveOverlapLocked handles conflicting ownership after a takeover
// race: if a peer with a smaller identifier claims a zone we also hold,
// we yield it.
func (n *Node) resolveOverlapLocked(peer Info) {
	if !peer.Ref.ID.Less(n.ref.ID) {
		return
	}
	kept := n.zones[:0]
	for _, z := range n.zones {
		conflict := false
		for _, pz := range peer.Zones {
			if z == pz || (z.Overlaps(pz) && pz.Volume() >= z.Volume()) {
				conflict = true
				break
			}
		}
		if !conflict {
			kept = append(kept, z)
		}
	}
	if len(kept) > 0 {
		n.zones = kept
	}
}

// expireAndTakeover marks silent neighbors dead and, after a further
// delay, claims their zones if we are the smallest-volume live abutting
// neighbor we know of (deterministic tie-break by identifier).
// Divergent local views can make every neighbor defer to someone else,
// so a node that still sees an unclaimed dead zone after three takeover
// periods claims it unconditionally; duplicate claims converge through
// resolveOverlapLocked (smaller identifier keeps the zone).
func (n *Node) expireAndTakeover(rt transport.Runtime) {
	now := rt.Now()
	n.mu.Lock()
	var claims [][]Zone
	var inherited []Brief
	for _, addr := range n.sortedNeighborAddrsLocked() {
		nb := n.neighbors[addr]
		if now-nb.lastSeen <= neighborTTL {
			nb.dead = 0
			continue
		}
		if nb.dead == 0 {
			nb.dead = now
			continue
		}
		age := now - nb.dead
		switch {
		case age < takeoverAfter:
			// grace period
		case n.claimedByLiveLocked(nb):
			// Someone else took the zones over; forget the dead node.
			delete(n.neighbors, addr)
		case n.shouldClaimLocked(nb) || age > time.Duration(3+n.claimRankLocked(nb))*takeoverAfter:
			claims = append(claims, nb.info.Zones)
			inherited = append(inherited, nb.digest...)
			delete(n.neighbors, addr)
		}
	}
	for _, zones := range claims {
		n.zones = append(n.zones, zones...)
	}
	// Inherit the dead node's neighbors (from its last gossiped digest)
	// that abut our enlarged zone set — the takeover handshake of real
	// CAN, without which the claimer and the dead node's far-side
	// neighbors may never learn of each other.
	for _, b := range inherited {
		if b.Ref.Addr == n.host.Addr() {
			continue
		}
		if _, known := n.neighbors[b.Ref.Addr]; known {
			continue
		}
		if n.abutsAnyLocked(b.Zones) {
			n.neighbors[b.Ref.Addr] = &neighbor{info: Info{Ref: b.Ref, Zones: b.Zones}, lastSeen: now}
		}
	}
	n.mu.Unlock()
	if len(claims) > 0 {
		// Tell everyone right away so routing heals.
		n.gossipOnce(rt)
	}
}

// claimRankLocked orders the fallback claim: this node's position (by
// identifier) among the live neighbors we know to abut the dead node's
// zones. Staggering fallback claims by rank lets the first claimer's
// gossip reach the others before their own timers fire, so unclaimed
// zones are adopted exactly once in the common case.
func (n *Node) claimRankLocked(dead *neighbor) int {
	rank := 0
	for _, other := range n.neighbors {
		if other == dead || other.dead != 0 {
			continue
		}
		if !other.info.Ref.ID.Less(n.ref.ID) {
			continue
		}
		for _, oz := range other.info.Zones {
			abuts := false
			for _, dz := range dead.info.Zones {
				if oz.Abuts(dz) {
					abuts = true
					break
				}
			}
			if abuts {
				rank++
				break
			}
		}
	}
	return rank
}

// claimedByLiveLocked reports whether some live neighbor now owns zones
// overlapping every zone the dead node held.
func (n *Node) claimedByLiveLocked(dead *neighbor) bool {
	for _, dz := range dead.info.Zones {
		covered := false
		for _, other := range n.neighbors {
			if other == dead || other.dead != 0 {
				continue
			}
			for _, oz := range other.info.Zones {
				if oz.Overlaps(dz) {
					covered = true
					break
				}
			}
			if covered {
				break
			}
		}
		if !covered {
			return false
		}
	}
	return true
}

// shouldClaimLocked applies the takeover rule from this node's local
// view: among live neighbors abutting the dead node's zones (plus us),
// the node with the smallest total zone volume claims; ties go to the
// smaller identifier.
func (n *Node) shouldClaimLocked(dead *neighbor) bool {
	if len(dead.info.Zones) == 0 {
		return false
	}
	myVol := 0.0
	for _, z := range n.zones {
		myVol += z.Volume()
	}
	for _, other := range n.neighbors {
		if other == dead || other.dead != 0 {
			continue
		}
		abuts := false
		for _, oz := range other.info.Zones {
			for _, dz := range dead.info.Zones {
				if oz.Abuts(dz) {
					abuts = true
					break
				}
			}
		}
		if !abuts {
			continue
		}
		otherVol := 0.0
		for _, z := range other.info.Zones {
			otherVol += z.Volume()
		}
		if otherVol < myVol || (otherVol == myVol && other.info.Ref.ID.Less(n.ref.ID)) {
			return false
		}
	}
	return true
}

// updateDirLoad recomputes the directional load estimates: for each
// dimension, an exponentially-decaying aggregate of the load in the
// region above (respectively below) this node, built from the
// corresponding estimates our above/below neighbors report. This is
// the "fixed amount of current system load information propagated
// along each dimension" from the paper's improved CAN variant.
func (n *Node) updateDirLoad() {
	n.mu.Lock()
	defer n.mu.Unlock()
	own := float64(n.loadFn())
	for d := 0; d < Dims; d++ {
		var aboveSum, belowSum float64
		var aboveN, belowN int
		for _, addr := range n.sortedNeighborAddrsLocked() {
			nb := n.neighbors[addr]
			if nb.dead != 0 {
				continue
			}
			rel := relativeDir(n.zones, nb.info.Zones, d)
			switch {
			case rel > 0:
				aboveSum += (float64(nb.info.Load) + nb.info.Above[d]) / 2
				aboveN++
			case rel < 0:
				belowSum += (float64(nb.info.Load) + nb.info.Below[d]) / 2
				belowN++
			}
		}
		if aboveN > 0 {
			n.above[d] = aboveSum / float64(aboveN)
		} else {
			n.above[d] = own
		}
		if belowN > 0 {
			n.below[d] = belowSum / float64(belowN)
		} else {
			n.below[d] = own
		}
	}
}

// relativeDir classifies a neighbor's position along dimension d:
// +1 if some of its zones abut ours at our upper face, -1 at our lower
// face, 0 otherwise.
func relativeDir(mine, theirs []Zone, d int) int {
	for _, m := range mine {
		for _, t := range theirs {
			if !m.Abuts(t) {
				continue
			}
			if t.Lo[d] == m.Hi[d] {
				return 1
			}
			if t.Hi[d] == m.Lo[d] {
				return -1
			}
		}
	}
	return 0
}

// aboveNeighborsLocked returns live neighbors abutting our upper face
// along dimension d, sorted by reported load then address.
func (n *Node) aboveNeighborsLocked(d int) []Info {
	var out []Info
	for _, addr := range n.sortedNeighborAddrsLocked() {
		nb := n.neighbors[addr]
		if nb.dead != 0 {
			continue
		}
		if relativeDir(n.zones, nb.info.Zones, d) > 0 {
			out = append(out, nb.info)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Load < out[j].Load })
	return out
}

func (n *Node) handleGossip(rt transport.Runtime, from transport.Addr, req any) (any, error) {
	g := req.(GossipReq)
	n.absorb(rt.Now(), g.From, g.Digest)
	return GossipResp{From: n.info()}, nil
}
