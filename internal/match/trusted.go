package match

import (
	"slices"

	"repro/internal/grid"
	"repro/internal/transport"
	"repro/internal/trust"
)

// Trusted wraps any grid.Matchmaker with the owner's local reputation
// table: blacklisted peers are excluded outright, and a candidate whose
// score has sunk below the neutral starting score triggers one retry in
// the hope of a better-reputed alternative. It composes with every
// algorithm in this package — reputation filters the candidate set, the
// wrapped matchmaker still decides placement.
type Trusted struct {
	Inner grid.Matchmaker
	Table *trust.Table
}

// FindRunNodes implements grid.Matchmaker. The jobs whose pick is a
// suspect are matched again together, in one sub-batch.
func (m *Trusted) FindRunNodes(rt transport.Runtime, reqs []grid.MatchReq) []grid.MatchResult {
	if m.Table == nil {
		return m.Inner.FindRunNodes(rt, reqs)
	}
	black := m.Table.BlacklistedPeers()
	reqs = slices.Clone(reqs)
	for i := range reqs {
		reqs[i].Exclude = slices.Concat(reqs[i].Exclude, black)
	}
	results := m.Inner.FindRunNodes(rt, reqs)
	// Suspects (below neutral, not yet blacklisted): look once for a
	// better-reputed alternative, keeping the suspect as fallback.
	var suspects []int
	var scores []float64
	var retry []grid.MatchReq
	for i, r := range results {
		if r.Err != nil {
			continue
		}
		if score := m.Table.Score(r.Run); score < m.Table.InitialScore() {
			suspects = append(suspects, i)
			scores = append(scores, score)
			retry = append(retry, grid.MatchReq{Cons: reqs[i].Cons, Exclude: slices.Concat(reqs[i].Exclude, []transport.Addr{r.Run})})
		}
	}
	if len(retry) == 0 {
		return results
	}
	for k, alt := range m.Inner.FindRunNodes(rt, retry) {
		res := &results[suspects[k]]
		res.Stats.Hops += alt.Stats.Hops
		res.Stats.Visits += alt.Stats.Visits
		res.Stats.Pushes += alt.Stats.Pushes
		res.Stats.Escalations += alt.Stats.Escalations
		res.Stats.WalkHops += alt.Stats.WalkHops
		if alt.Err == nil && m.Table.Score(alt.Run) > scores[k] {
			res.Run = alt.Run
		}
	}
	return results
}
