package sim

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Stats is the kernel's opt-in performance collector. Enable it with
// Engine.EnableStats before running; all fields are maintained by the
// engine strictly outside the virtual timeline — a seeded run replays
// byte-identically with stats on or off, the same invariant the obs
// layer pins for live instrumentation. Wall-clock fields (WallNS and
// TagStats.WallNS) come from the host clock and vary run to run; every
// other field is a pure function of the seed and workload.
type Stats struct {
	EventsScheduled int64 // Schedule calls
	EventsFired     int64 // events whose handler ran
	EventsStopped   int64 // events cancelled before firing
	Switches        int64 // engine<->proc control transfers (spawns + wakes)
	Spawns          int64 // procs started
	Kills           int64 // procs killed before natural exit
	Wakes           int64 // wake deliveries accepted by a parked proc
	StaleWakes      int64 // wake deliveries rejected (stale generation or dead proc)
	PeakQueue       int   // deepest the event heap got
	PeakProcs       int   // most live procs registered at once
	WallNS          int64 // host ns spent inside Run/RunUntil
	VirtNS          int64 // virtual ns the clock advanced while measured

	// ByTag attributes events and switches to the subsystem that
	// scheduled them (see Engine.Tagged and simnet's layer classifier).
	ByTag map[string]*TagStats
}

// TagStats is one attribution bucket.
type TagStats struct {
	Scheduled int64 // events scheduled under this tag
	Fired     int64 // events fired under this tag
	Switches  int64 // proc control transfers during those firings
	WallNS    int64 // host ns spent firing them (handler + proc time)
}

// untagged is the bucket for events scheduled outside any Tagged scope.
const untagged = "untagged"

// tag returns the bucket for name, creating it on first use.
func (s *Stats) tag(name string) *TagStats {
	if name == "" {
		name = untagged
	}
	t := s.ByTag[name]
	if t == nil {
		t = &TagStats{}
		s.ByTag[name] = t
	}
	return t
}

// EventsPerSec is fired events per wall-clock second.
func (s *Stats) EventsPerSec() float64 {
	if s.WallNS == 0 {
		return 0
	}
	return float64(s.EventsFired) / (float64(s.WallNS) / 1e9)
}

// WallPerVirtSec is host seconds burned per simulated second — the
// number a scale refactor must drive down.
func (s *Stats) WallPerVirtSec() float64 {
	if s.VirtNS == 0 {
		return 0
	}
	return float64(s.WallNS) / float64(s.VirtNS)
}

// SwitchesPerEvent is engine<->proc coroutine switches per fired
// event — the parking overhead an event-callback fast path would
// eliminate.
func (s *Stats) SwitchesPerEvent() float64 {
	if s.EventsFired == 0 {
		return 0
	}
	return float64(s.Switches) / float64(s.EventsFired)
}

// TagRank is one row of the per-layer ranking.
type TagRank struct {
	Tag string
	TagStats
}

// RankedTags returns the attribution buckets sorted by fired events
// (descending), ties broken by name for stable output.
func (s *Stats) RankedTags() []TagRank {
	out := make([]TagRank, 0, len(s.ByTag))
	for name, t := range s.ByTag {
		out = append(out, TagRank{Tag: name, TagStats: *t})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Fired != out[j].Fired {
			return out[i].Fired > out[j].Fired
		}
		return out[i].Tag < out[j].Tag
	})
	return out
}

// TopTag names the subsystem that fired the most events ("" when no
// tagged events fired).
func (s *Stats) TopTag() string {
	ranked := s.RankedTags()
	if len(ranked) == 0 {
		return ""
	}
	return ranked[0].Tag
}

// Report renders the collector as an aligned human-readable block —
// what gridsim -simstats prints after every run.
func (s *Stats) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sim kernel: %d events fired (%d scheduled, %d stopped), %d switches (%.2f/event)\n",
		s.EventsFired, s.EventsScheduled, s.EventsStopped, s.Switches, s.SwitchesPerEvent())
	fmt.Fprintf(&b, "  procs: %d spawned, %d killed, %d wakes (%d stale), peak %d live\n",
		s.Spawns, s.Kills, s.Wakes, s.StaleWakes, s.PeakProcs)
	fmt.Fprintf(&b, "  queue: peak depth %d\n", s.PeakQueue)
	fmt.Fprintf(&b, "  wall: %v for %v virtual (%.3f wall-s/sim-s), %.0f events/s\n",
		time.Duration(s.WallNS).Round(time.Millisecond),
		time.Duration(s.VirtNS).Round(time.Millisecond),
		s.WallPerVirtSec(), s.EventsPerSec())
	ranked := s.RankedTags()
	if len(ranked) > 0 {
		fmt.Fprintf(&b, "  %-12s %10s %10s %10s %10s\n", "layer", "scheduled", "fired", "switches", "wall")
		for _, r := range ranked {
			fmt.Fprintf(&b, "  %-12s %10d %10d %10d %10v\n",
				r.Tag, r.Scheduled, r.Fired, r.Switches, time.Duration(r.WallNS).Round(time.Millisecond))
		}
	}
	return b.String()
}
