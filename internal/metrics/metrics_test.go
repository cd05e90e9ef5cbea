package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/grid"
	"repro/internal/ids"
	"repro/internal/transport"
)

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.P50 != 3 {
		t.Fatalf("summary: %+v", s)
	}
	want := math.Sqrt(2.5) // sample stdev of 1..5
	if math.Abs(s.Std-want) > 1e-9 {
		t.Fatalf("std = %v, want %v", s.Std, want)
	}
}

func TestSummarizeEdgeCases(t *testing.T) {
	if s := Summarize(nil); s.N != 0 {
		t.Fatal("empty summary")
	}
	s := Summarize([]float64{7})
	if s.N != 1 || s.Mean != 7 || s.Std != 0 || s.P99 != 7 {
		t.Fatalf("singleton: %+v", s)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	in := []float64{3, 1, 2}
	Summarize(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatal("input reordered")
	}
}

func TestQuantileExported(t *testing.T) {
	xs := []float64{50, 10, 30, 20, 40} // unsorted on purpose
	if got := Quantile(xs, 0.5); got != 30 {
		t.Fatalf("p50 = %v, want 30", got)
	}
	if got := Quantile(xs, 0); got != 10 {
		t.Fatalf("p0 = %v, want 10", got)
	}
	if got := Quantile(xs, 1); got != 50 {
		t.Fatalf("p100 = %v, want 50", got)
	}
	// Interpolation: p75 of 10..50 lies between 30 and 40.
	if got := Quantile(xs, 0.75); got != 40 {
		t.Fatalf("p75 = %v, want 40", got)
	}
	if Quantile(nil, 0.5) != 0 {
		t.Fatal("empty sample")
	}
	if xs[0] != 50 {
		t.Fatal("input mutated")
	}
	// Quantile must agree with Summarize on the same sample.
	s := Summarize(xs)
	if Quantile(xs, 0.50) != s.P50 || Quantile(xs, 0.95) != s.P95 || Quantile(xs, 0.99) != s.P99 {
		t.Fatal("Quantile disagrees with Summarize")
	}
}

func TestCollectorQuantiles(t *testing.T) {
	c := NewCollector()
	// Five jobs with wait times 1..5 s and turnarounds 11..15 s.
	for i := 1; i <= 5; i++ {
		id := ids.HashString(string(rune('a' + i)))
		c.Record(grid.Event{Kind: grid.EvSubmitted, JobID: id, At: 0})
		c.Record(grid.Event{Kind: grid.EvStarted, JobID: id, At: time.Duration(i) * time.Second})
		c.Record(grid.Event{Kind: grid.EvResultDelivered, JobID: id, At: time.Duration(10+i) * time.Second})
	}
	waits, turns := c.WaitTimes(), c.Turnarounds()
	ws, ts := Summarize(waits), Summarize(turns)
	p50, p95, p99 := Quantile(waits, 0.50), Quantile(waits, 0.95), Quantile(waits, 0.99)
	if p50 != ws.P50 || p95 != ws.P95 || p99 != ws.P99 {
		t.Fatalf("wait quantiles (%v,%v,%v) vs %+v", p50, p95, p99, ws)
	}
	if p50 != 3 {
		t.Fatalf("wait p50 = %v, want 3", p50)
	}
	q50, q95, q99 := Quantile(turns, 0.50), Quantile(turns, 0.95), Quantile(turns, 0.99)
	if q50 != ts.P50 || q95 != ts.P95 || q99 != ts.P99 {
		t.Fatalf("turnaround quantiles (%v,%v,%v) vs %+v", q50, q95, q99, ts)
	}
}

func TestQuantileMonotone(t *testing.T) {
	s := Summarize([]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100})
	if !(s.P50 <= s.P90 && s.P90 <= s.P95 && s.P95 <= s.P99 && s.P99 <= s.Max) {
		t.Fatalf("quantiles not monotone: %+v", s)
	}
}

func TestSummaryMeanBounds(t *testing.T) {
	f := func(xs []float64) bool {
		var clean []float64
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				// Bound magnitudes so the sum cannot overflow; summary
				// statistics target measured durations, not 1e308.
				clean = append(clean, math.Mod(x, 1e6))
			}
		}
		if len(clean) == 0 {
			return true
		}
		s := Summarize(clean)
		return s.Mean >= s.Min-1e-9 && s.Mean <= s.Max+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestImbalance(t *testing.T) {
	cv, mm := Imbalance([]float64{10, 10, 10, 10})
	if cv != 0 || mm != 1 {
		t.Fatalf("balanced: cv=%v mm=%v", cv, mm)
	}
	cv2, mm2 := Imbalance([]float64{0, 0, 0, 40})
	if cv2 <= 1 || mm2 != 4 {
		t.Fatalf("imbalanced: cv=%v mm=%v", cv2, mm2)
	}
	if cv3, _ := Imbalance([]float64{0, 0}); cv3 != 0 {
		t.Fatal("zero-mean imbalance")
	}
}

func TestCollectorBuildsTraces(t *testing.T) {
	c := NewCollector()
	id := ids.HashString("job")
	evts := []grid.Event{
		{Kind: grid.EvSubmitted, JobID: id, At: 0},
		{Kind: grid.EvInjected, JobID: id, At: time.Second, Hops: 4},
		{Kind: grid.EvOwned, JobID: id, At: 2 * time.Second},
		{Kind: grid.EvMatched, JobID: id, At: 3 * time.Second, Match: grid.MatchStats{Hops: 6, Visits: 3}},
		{Kind: grid.EvStarted, JobID: id, At: 10 * time.Second},
		{Kind: grid.EvResultDelivered, JobID: id, At: 40 * time.Second},
	}
	for _, ev := range evts {
		c.Record(ev)
	}
	jobs := c.Jobs()
	if len(jobs) != 1 {
		t.Fatal("trace count")
	}
	tr := jobs[0]
	if w, ok := tr.Wait(); !ok || w != 10*time.Second {
		t.Fatalf("wait = %v %v", w, ok)
	}
	if ta, ok := tr.Turnaround(); !ok || ta != 40*time.Second {
		t.Fatalf("turnaround = %v %v", ta, ok)
	}
	if got := c.WaitTimes(); len(got) != 1 || got[0] != 10 {
		t.Fatalf("WaitTimes = %v", got)
	}
	if got := c.MatchCosts(); len(got) != 1 || got[0] != 10 { // 4 route + 6 match
		t.Fatalf("MatchCosts = %v", got)
	}
	if got := c.MatchVisits(); len(got) != 1 || got[0] != 3 {
		t.Fatalf("MatchVisits = %v", got)
	}
	if c.Count(grid.EvStarted) != 1 || c.Count(grid.EvResubmitted) != 0 {
		t.Fatal("counts")
	}
}

func TestCollectorFirstStartWins(t *testing.T) {
	// Recovery re-runs must not overwrite the original start time.
	c := NewCollector()
	id := ids.HashString("dup")
	c.Record(grid.Event{Kind: grid.EvSubmitted, JobID: id, At: 0})
	c.Record(grid.Event{Kind: grid.EvStarted, JobID: id, At: 5 * time.Second})
	c.Record(grid.Event{Kind: grid.EvStarted, JobID: id, At: 50 * time.Second})
	if w, _ := c.Jobs()[0].Wait(); w != 5*time.Second {
		t.Fatalf("wait = %v", w)
	}
}

func TestCollectorCheckpointAccounting(t *testing.T) {
	c := NewCollector()
	id := ids.HashString("ckpt")
	work := 30 * time.Second
	evts := []grid.Event{
		{Kind: grid.EvSubmitted, JobID: id, At: 0},
		{Kind: grid.EvStarted, JobID: id, At: time.Second},
		{Kind: grid.EvCheckpointed, JobID: id, At: 6 * time.Second, Progress: 5 * time.Second},
		{Kind: grid.EvCheckpointed, JobID: id, At: 11 * time.Second, Progress: 10 * time.Second},
		{Kind: grid.EvRunFailureDetected, JobID: id, At: 14 * time.Second, Progress: 10 * time.Second},
		{Kind: grid.EvResumed, JobID: id, At: 15 * time.Second, Progress: 10 * time.Second},
		{Kind: grid.EvResultDelivered, JobID: id, At: 40 * time.Second, Progress: work},
	}
	for _, ev := range evts {
		c.Record(ev)
	}
	tr := c.Jobs()[0]
	if tr.Checkpoints != 2 || tr.Resumes != 1 {
		t.Fatalf("checkpoints=%d resumes=%d", tr.Checkpoints, tr.Resumes)
	}
	if tr.ResumedWork != 10*time.Second || tr.Work != work {
		t.Fatalf("resumedWork=%v work=%v", tr.ResumedWork, tr.Work)
	}
	if c.Count(grid.EvCheckpointed) != 2 || c.Count(grid.EvResumed) != 1 {
		t.Fatal("event counts")
	}
	if c.UsefulWork() != work || c.ResumedWork() != 10*time.Second {
		t.Fatalf("useful=%v resumed=%v", c.UsefulWork(), c.ResumedWork())
	}
}

func TestCollectorIncompleteJobsExcluded(t *testing.T) {
	c := NewCollector()
	c.Record(grid.Event{Kind: grid.EvSubmitted, JobID: ids.HashString("never"), At: 0})
	if len(c.WaitTimes()) != 0 || len(c.Turnarounds()) != 0 {
		t.Fatal("unstarted job contributed stats")
	}
}

func TestWrongDeliveries(t *testing.T) {
	c := NewCollector()
	good := ids.HashString("job-good")
	bad := ids.HashString("job-bad")
	open := ids.HashString("job-open")
	c.Record(grid.Event{Kind: grid.EvSubmitted, JobID: good, Seq: 1, Digest: "dA"})
	c.Record(grid.Event{Kind: grid.EvResultDelivered, JobID: good, Digest: "dA"})
	c.Record(grid.Event{Kind: grid.EvSubmitted, JobID: bad, Seq: 2, Digest: "dB"})
	c.Record(grid.Event{Kind: grid.EvResultDelivered, JobID: bad, Digest: "corrupt"})
	c.Record(grid.Event{Kind: grid.EvSubmitted, JobID: open, Seq: 3, Digest: "dC"})
	if got := c.WrongDeliveries(); got != 1 {
		t.Fatalf("WrongDeliveries = %d, want 1", got)
	}
	for _, tr := range c.Jobs() {
		switch tr.JobID {
		case good:
			if tr.WrongDelivered() || tr.Seq != 1 || tr.Expect != "dA" || tr.Digest != "dA" {
				t.Fatalf("good trace wrong: %+v", tr)
			}
		case bad:
			if !tr.WrongDelivered() {
				t.Fatalf("bad trace not flagged: %+v", tr)
			}
		case open:
			if tr.WrongDelivered() {
				t.Fatal("undelivered job must not count as wrong")
			}
		}
	}
	// Legacy traces without digests never count as wrong.
	legacy := ids.HashString("job-legacy")
	c.Record(grid.Event{Kind: grid.EvSubmitted, JobID: legacy})
	c.Record(grid.Event{Kind: grid.EvResultDelivered, JobID: legacy})
	if got := c.WrongDeliveries(); got != 1 {
		t.Fatalf("legacy digestless trace flagged: WrongDeliveries = %d", got)
	}
}

// TestCheck feeds hand-built event streams to the exactly-once oracle:
// one stream per rule that must fail with an error naming the job or
// lineage, and two that must pass.
func TestCheck(t *testing.T) {
	a0, a1, b0 := grid.JobGUID("c", 1, 0), grid.JobGUID("c", 1, 1), grid.JobGUID("c", 2, 0)
	sub := func(id ids.ID, seq int) grid.Event {
		return grid.Event{Kind: grid.EvSubmitted, JobID: id, Node: "c", Seq: seq, Digest: "d" + string(rune('0'+seq))}
	}
	del := func(id ids.ID, seq int) grid.Event {
		return grid.Event{Kind: grid.EvResultDelivered, JobID: id, Node: "r", Digest: "d" + string(rune('0'+seq))}
	}
	ev := func(kind grid.EventKind, id ids.ID, node transport.Addr, done time.Duration) grid.Event {
		return grid.Event{Kind: kind, JobID: id, Node: node, Progress: done}
	}
	clean := []grid.Event{
		sub(a0, 1), sub(b0, 2),
		ev(grid.EvStarted, a0, "r", 0), ev(grid.EvCheckpointed, a0, "r", time.Second),
		ev(grid.EvStarted, a0, "s", time.Second), ev(grid.EvResumed, a0, "s", time.Second),
		ev(grid.EvCheckpointed, a0, "s", 2*time.Second), del(a0, 1),
		ev(grid.EvStarted, b0, "r", 0), del(b0, 2),
	}
	for _, tc := range []struct {
		name string
		evs  []grid.Event
		want string // substring of the error; "" means Check passes
	}{
		{"clean", clean, ""},
		{"resubmitted lineage", []grid.Event{
			sub(a0, 1), sub(b0, 2), ev(grid.EvGaveUp, a0, "o", 0),
			ev(grid.EvResubmitted, a0, "c", 0), sub(a1, 1), del(a1, 1), del(b0, 2),
		}, ""},
		{"1: GUID delivered twice", append(clean, del(b0, 2)), "job " + b0.Short() + " delivered 2 times"},
		{"1: delivered unsubmitted", []grid.Event{sub(a0, 1), del(a0, 1), del(b0, 2)}, "job " + b0.Short() + " delivered but never submitted"},
		{"2: lineage delivered twice", []grid.Event{sub(a0, 1), sub(a1, 1), del(a0, 1), del(a1, 1), sub(b0, 2), del(b0, 2)}, "lineage c#1 delivered 2 times"},
		{"2: lineage undelivered", []grid.Event{sub(a0, 1), sub(b0, 2), del(a0, 1)}, "lineage c#2 delivered 0 times"},
		{"2: lineage never submitted", []grid.Event{sub(a0, 1), del(a0, 1)}, "1 lineages submitted, want 2"},
		{"3: wrong digest", []grid.Event{sub(a0, 1), sub(b0, 2), del(a0, 1), del(b0, 1)}, "job " + b0.Short() + " delivered digest"},
		{"4: resume off the started offset", []grid.Event{
			sub(a0, 1), sub(b0, 2), ev(grid.EvStarted, a0, "s", time.Second),
			ev(grid.EvResumed, a0, "s", 2*time.Second), del(a0, 1), del(b0, 2),
		}, "job " + a0.Short() + ": resumed on s at 2s after 1s"},
		{"4: snapshot does not rise", []grid.Event{
			sub(a0, 1), sub(b0, 2), ev(grid.EvStarted, a0, "r", 0), ev(grid.EvCheckpointed, a0, "r", 2*time.Second),
			ev(grid.EvCheckpointed, a0, "r", 2*time.Second), del(a0, 1), del(b0, 2),
		}, "job " + a0.Short() + ": checkpointed on r at 2s after 2s"},
		{"4: snapshot outside an execution", []grid.Event{
			sub(a0, 1), sub(b0, 2), ev(grid.EvStarted, a0, "r", 0),
			ev(grid.EvCheckpointed, a0, "s", time.Second), del(a0, 1), del(b0, 2),
		}, "job " + a0.Short() + ": checkpointed on s with no execution started there"},
		{"5: gave up, never resubmitted", []grid.Event{
			sub(a0, 1), sub(b0, 2), ev(grid.EvGaveUp, b0, "o", 0), del(a0, 1),
		}, "job " + b0.Short() + " gave up and was neither resubmitted nor delivered"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCollector()
			for _, e := range tc.evs {
				c.Record(e)
			}
			err := c.Check(2)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("Check: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("Check = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}
