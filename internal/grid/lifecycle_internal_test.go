package grid

import (
	"fmt"
	"slices"
	"testing"
)

// TestLifecycleTable: every EventKind has exactly one row, with a
// unique name that String reads, and the kinds each role pushes to a
// job's topic are the ones the call sites pushed before the table
// decided it (a matched push only for a job that runs once, the
// checkpointed push at the owner that stores the snapshot, reputation
// changes with the vote that caused them).
func TestLifecycleTable(t *testing.T) {
	if len(lifecycle) != int(EvInjectRejected)+1 {
		t.Fatalf("%d rows for %d kinds", len(lifecycle), EvInjectRejected+1)
	}
	seen := map[string]EventKind{}
	for k := EvSubmitted; k <= EvInjectRejected; k++ {
		st := lifecycle[k]
		if st.name == "" || st.by == 0 {
			t.Errorf("kind %d has no row", k)
		}
		if prev, dup := seen[st.name]; dup {
			t.Errorf("kinds %d and %d share the name %q", prev, k, st.name)
		}
		seen[st.name] = k
		if k.String() != st.name {
			t.Errorf("kind %d String() = %q, row name %q", k, k.String(), st.name)
		}
	}
	if got, want := EventKind(len(lifecycle)).String(), fmt.Sprintf("EventKind(%d)", len(lifecycle)); got != want {
		t.Errorf("out-of-table kind String() = %q, want %q", got, want)
	}

	pushedBy := map[role][]EventKind{
		client:   {EvResubmitted},
		injector: nil,
		owner: {EvOwned, EvMatched, EvCompleted, EvRunFailureDetected, EvOwnerAdopted,
			EvGaveUp, EvCheckpointed, EvPromoted, EvHandoff, EvRestored},
		voter: {EvOwned, EvRunFailureDetected, EvOwnerAdopted, EvGaveUp, EvVoted, EvAccepted,
			EvRejected, EvReputation, EvBlacklisted, EvPromoted, EvHandoff, EvRestored},
		runner: {EvStarted},
	}
	for r, want := range pushedBy {
		var got []EventKind
		for k, st := range lifecycle {
			if st.push&r != 0 {
				got = append(got, EventKind(k))
			}
		}
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Errorf("role %b pushes %v, want %v", r, got, want)
		}
	}
}

// TestLifeMove: a record moves only along the table's rows, and an
// opening step is refused once the record is open.
func TestLifeMove(t *testing.T) {
	var l life
	for _, step := range []struct {
		kind EventKind
		ok   bool
	}{
		{EvStarted, false}, // a run record is opened by enqueued
		{EvEnqueued, true},
		{EvEnqueued, false},
		{EvStarted, true},
		{EvResumed, true},
		{EvCheckpointed, true},
		{EvCheckpointed, true},
		{EvStarted, false},
	} {
		if got := l.move(lifecycle[step.kind].follows, step.kind); got != step.ok {
			t.Fatalf("move to %v = %v, want %v", step.kind, got, step.ok)
		}
	}
}
