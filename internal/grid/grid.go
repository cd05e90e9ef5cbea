// Package grid implements the desktop-grid layer of the paper (Section
// 2, Figure 1): clients inject jobs at any node, the injection node
// assigns a GUID and routes the job to its owner node, the owner runs
// matchmaking to choose a run node, run nodes execute jobs from a FIFO
// queue one at a time while heartbeating every queued job to its owner
// over a direct connection, and results return to the client.
//
// Robustness: the job profile is replicated at the owner and run node.
// The owner detects run-node failure by heartbeat timeout and rematches
// the job; the run node detects owner failure by heartbeat delivery
// failure and routes the job's GUID to its new owner (the DHT
// reassigns the key automatically); if both fail, the client's monitor
// times out and resubmits.
package grid

import (
	"fmt"
	"time"

	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/pubsub"
	"repro/internal/resource"
	"repro/internal/transport"
	"repro/internal/trust"
	"repro/internal/workload"
)

// Config tunes the grid layer. The zero value selects the defaults.
type Config struct {
	// HeartbeatEvery is the run node's per-owner heartbeat period
	// (default 2 s).
	HeartbeatEvery time.Duration
	// RunDeadAfter is how long an owner waits without heartbeats before
	// declaring a run node dead and rematching (default 8 s).
	RunDeadAfter time.Duration
	// OwnerDeadAfter is how long a run node tolerates failing
	// heartbeats before seeking a new owner (default 8 s).
	OwnerDeadAfter time.Duration
	// MaxRematch bounds how many distinct run nodes the owner will try
	// per job (default 5).
	MaxRematch int
	// MatchRetryEvery spaces retries when matchmaking finds no
	// candidate (default 5 s).
	MatchRetryEvery time.Duration
	// ResultRetries bounds direct result-delivery attempts before the
	// run node hands the result to the owner to relay (default 3).
	ResultRetries int
	// SpeedScaling divides a job's nominal work by the run node's CPU
	// capability — the heterogeneous-runtime extension (default off:
	// the paper's evaluation uses workload-specified runtimes).
	SpeedScaling bool
	// Executor, when set, performs the job's actual computation instead
	// of sleeping for the nominal Work duration. Live deployments use it
	// to run real (sandboxed) work; the simulator leaves it nil.
	Executor func(prof Profile) (outputKB int, err error)
	// FairShare changes the run queue discipline from the paper's FIFO
	// to least-served-client-first — the fairness extension the paper
	// leaves as future work ("allocating resources to requests from
	// both users submitting large numbers of jobs at once ... and from
	// users with smaller resource requirements").
	FairShare bool

	// CheckpointEvery enables the checkpoint/resume subsystem: run
	// nodes snapshot job progress at this interval and ship snapshots
	// to the owner, so a recovered job resumes instead of restarting
	// (default 0: off, the paper's restart-from-scratch recovery).
	CheckpointEvery time.Duration
	// CheckpointAdaptive adapts the interval to the observed failure
	// rate (Young's rule, after Ni & Harwood's adaptive scheme for P2P
	// volunteer grids): sqrt(2*checkpointCost/rate), clamped to
	// [CheckpointMinEvery, CheckpointMaxEvery]. With no recent failure
	// observations the interval backs off to CheckpointMaxEvery.
	CheckpointAdaptive bool
	// CheckpointMinEvery / CheckpointMaxEvery clamp the adaptive
	// interval (defaults 1 s and 60 s).
	CheckpointMinEvery time.Duration
	CheckpointMaxEvery time.Duration
	// CheckpointWorkflowAware makes the adaptive policy honor the
	// per-job CkptBias hint the flow engine stamps on critical-path and
	// high-fan-out workflow stages: the Young's-rule interval is divided
	// by sqrt(bias), so the stages whose loss would re-execute the most
	// downstream work snapshot the most often (Ni & Harwood's
	// workflow-aware refinement). Default off: bias hints are carried
	// but ignored, which is what plain-adaptive comparisons and seeded
	// replays of earlier PRs expect. Requires CheckpointAdaptive.
	CheckpointWorkflowAware bool

	// Replicas is the sabotage-tolerance redundancy degree R: owners
	// schedule every job on R independent run nodes and vote on the
	// returned result digests (default 1: the paper's single-execution
	// protocol, no voting). Raised to Quorum when set below it.
	Replicas int
	// Quorum is how many matching digests accept a result (default 1).
	// With Replicas=1/Quorum=1 the voting path is disabled entirely and
	// the wire protocol and event traces are unchanged.
	Quorum int
	// Trust, when set, is this node's local peer-reputation table:
	// voting outcomes feed it, matchmaking skips its blacklisted peers,
	// and probes spot-check them. Independent of Replicas/Quorum — but
	// only voting outcomes and probes ever update it.
	Trust *trust.Table
	// ProbeEvery spaces known-answer probe jobs sent to the worst
	// blacklisted peer in Trust (default 0; <= 0: probing off).
	ProbeEvery time.Duration
	// Byzantine, when set, makes THIS node a saboteur as a run node: for
	// each (job, attempt) it may return a corrupted result digest
	// (wrong) or silently withhold the result (withhold). Installed by
	// the fault-injection layer; nil on honest nodes.
	Byzantine func(jobID ids.ID, attempt int) (wrong, withhold bool)

	// ReplicaK enables owner-state replication (DESIGN.md §10): every
	// owner mutation is also written to a replicated store that pushes
	// it to the first ReplicaK live ring successors, and replicas
	// promote themselves to owner when probes declare the owner dead —
	// removing the client resubmit from the owner+run double-failure
	// path. Default 0: off, the paper's owner+run-only replication.
	// Requires ReplicaRing.
	ReplicaK int
	// ReplicaRing supplies ring position and successor targets for the
	// replica subsystem (replica.ChordRing over chord in deployments;
	// tests substitute scripted rings).
	ReplicaRing ReplicaRing

	// OwnerCapacity bounds the owner's inject queue: how many jobs one
	// node will track as owner at once. Injections beyond it are
	// rejected with a retry-after hint (retryAfterBase, scaled by the
	// overshoot; clients jitter around it) instead of growing the owned
	// set without bound — a hot owner sheds load rather than
	// collapsing (default 0: unbounded, the paper's behavior).
	// Recovery paths (adoption, replica promotion) bypass the bound;
	// shedding those would lose jobs that are already placed.
	OwnerCapacity int

	// Notify, when set, attaches the DHT pub/sub notification overlay
	// (DESIGN.md §13): this node publishes every owner-side job-state
	// transition to the job lineage's topic (the attempt-0 GUID), and
	// the client side subscribes on submit so the monitor becomes
	// push-driven — per-job status polling demotes to a slow liveness
	// fallback that fires only on notification silence. Default nil:
	// off, the paper's polling monitor, and what seeded replays of
	// earlier PRs expect. All publish/subscribe I/O runs on
	// broker-owned activities, never on the protocol hot path, so
	// protocol outcomes are unchanged with it on or off.
	Notify *pubsub.Broker
	// NotifySilence is how long a push notification keeps a due
	// pending job fresh in the client monitor before the polling
	// fallback probes it anyway (default 3*HeartbeatEvery).
	NotifySilence time.Duration

	// Obs, when set, attaches the live observability layer: lifecycle
	// metrics feed its registry, job traces its tracer, and structured
	// events its hub. Observability is trace-neutral — it never feeds
	// back into protocol decisions, and attaching it to a deterministic
	// simulation leaves the recorded event trace byte-identical (see
	// obs_soak_test.go). Nil disables it at zero cost beyond one
	// predictable branch per instrument call.
	Obs *obs.Obs

	// PeerDown, when set, reports whether the transport layer currently
	// fast-fails calls to addr — an open per-peer circuit breaker
	// (nettransport.Host.PeerDown). Matchmaking demotes such peers for
	// the round instead of spending an assignment attempt on them, and
	// the client monitor probes them last. Nil (the simulator) disables
	// degradation, keeping seeded replays byte-identical.
	PeerDown func(addr transport.Addr) bool
	// Health, when set, supplies the transport's per-peer breaker
	// snapshot answered over the grid.health RPC (gridctl health). Nil
	// reports no peers.
	Health func() []transport.PeerHealth
}

func (c Config) withDefaults() Config {
	if c.HeartbeatEvery == 0 {
		c.HeartbeatEvery = 2 * time.Second
	}
	if c.RunDeadAfter == 0 {
		c.RunDeadAfter = 8 * time.Second
	}
	if c.OwnerDeadAfter == 0 {
		c.OwnerDeadAfter = 8 * time.Second
	}
	if c.MaxRematch == 0 {
		c.MaxRematch = 5
	}
	if c.MatchRetryEvery == 0 {
		c.MatchRetryEvery = 5 * time.Second
	}
	if c.ResultRetries == 0 {
		c.ResultRetries = 3
	}
	if c.CheckpointMinEvery == 0 {
		c.CheckpointMinEvery = time.Second
	}
	if c.CheckpointMaxEvery == 0 {
		c.CheckpointMaxEvery = time.Minute
	}
	if c.Replicas == 0 {
		c.Replicas = 1
	}
	if c.Quorum == 0 {
		c.Quorum = 1
	}
	if c.Replicas < c.Quorum {
		c.Replicas = c.Quorum
	}
	if c.NotifySilence == 0 {
		c.NotifySilence = 3 * c.HeartbeatEvery
	}
	return c
}

// RetryAfterError is an owner's backpressure rejection: the inject
// queue is full and the client should try again after the suggested
// backoff (with jitter). On the wire it travels as the RetryAfterMS
// field of the response payload — identically over both transports —
// and is reconstructed into this type client-side.
type RetryAfterError struct{ After time.Duration }

func (e *RetryAfterError) Error() string {
	return fmt.Sprintf("grid: owner at capacity, retry after %s", e.After)
}

// votingOn reports whether the redundant-execution/quorum-voting path
// is active. With it off the owner state machine is byte-for-byte the
// pre-voting protocol.
func (c Config) votingOn() bool { return c.Replicas > 1 || c.Quorum > 1 }

// Profile describes a job: the paper's "data and associated profile".
type Profile struct {
	ID      ids.ID
	Client  transport.Addr
	Seq     int // client-local submission number
	Attempt int // resubmission counter
	JobSpec     // what the client submitted
}

// JobGUID derives a job's GUID the way the paper's injection node does:
// by hashing the submission identity.
func JobGUID(client transport.Addr, seq, attempt int) ids.ID {
	return ids.HashString(fmt.Sprintf("%s/%d/%d", client, seq, attempt))
}

// TraceID is a job lineage's trace identifier: the attempt-0 GUID,
// stable across resubmissions so one trace spans every attempt — and
// derivable from the submission identity alone, so any node can
// reconstruct it for an untraced legacy message.
func TraceID(client transport.Addr, seq int) ids.ID {
	return JobGUID(client, seq, 0)
}

// Checkpoint is a snapshot of one job's partial progress, produced by
// the run node's resumable work (workload.Resumable) and replicated at
// the owner so recovery resumes instead of restarting. Done is the
// nominal work completed; Data is the computation's serialized state
// (empty for pure-duration simulated jobs).
type Checkpoint struct {
	JobID   ids.ID
	Attempt int
	Run     transport.Addr // run node that took the snapshot
	Done    time.Duration
	Data    []byte
	At      time.Duration // virtual time of the snapshot
}

// Zero reports whether the checkpoint holds no progress.
func (c Checkpoint) Zero() bool { return c.Done <= 0 }

// Result is what the run node returns to the client.
type Result struct {
	JobID    ids.ID
	Attempt  int
	RunNode  transport.Addr
	Started  time.Duration
	Finished time.Duration
	OutputKB int
	// Err reports an execution failure (the job ran but its computation
	// returned an error); empty on success.
	Err string
	// Digest fingerprints the result's content for quorum voting; empty
	// on the legacy single-execution path.
	Digest string
	// Data is the job's output payload, attached only when the profile
	// asked for it (Profile.CarryOutput) — a deterministic function of
	// the submission identity and input bytes, so every attempt and
	// every honest run node produces identical output. The flow engine
	// feeds it to dependent stages as their Input.
	Data []byte
}

// ResultDigest fingerprints a result's content. It deliberately covers
// only what the computation determines — the submission identity and
// the output — so honest replicas of the same job produce identical
// digests regardless of which run node or attempt computed them.
func ResultDigest(client transport.Addr, seq, outputKB int, execErr string) string {
	return ids.HashString(fmt.Sprintf("result/%s/%d/%d/%s", client, seq, outputKB, execErr)).String()
}

// CorruptDigest is the wrong answer a Byzantine run node returns:
// derived from the correct digest AND the saboteur's own address, so
// independent (non-colluding) saboteurs corrupt differently and cannot
// accidentally form a quorum of identical wrong answers.
func CorruptDigest(correct string, node transport.Addr) string {
	return ids.HashString(fmt.Sprintf("corrupt/%s/%s", correct, node)).String()
}

// ProbeDigest is the known answer to a spot-check probe job with the
// given nonce; the prober computes it locally and compares.
func ProbeDigest(nonce string) string {
	return ids.HashString("probe/" + nonce).String()
}

// StageOutput derives the output payload a CarryOutput job produces: a
// pure function of the submission identity and the input bytes, sized
// OutputKB (minimum 1 KB). Like ResultDigest it deliberately covers
// only what the computation determines, so every attempt on every
// honest run node derives identical bytes — data passing stays safe
// across resubmission, rematch, and owner handoff.
func StageOutput(prof Profile) []byte {
	kb := prof.OutputKB
	if kb <= 0 {
		kb = 1
	}
	seed := fmt.Sprintf("stage-out/%s/%d/%s", prof.Client, prof.Seq, ids.Hash(prof.Input))
	return workload.DeriveBytes(seed, kb*1024)
}

// MatchStats quantifies one matchmaking operation, aggregated across
// whatever algorithm produced it.
type MatchStats struct {
	Hops        int // overlay messages used
	Visits      int // nodes examined (tree search)
	Pushes      int // CAN load-push steps
	Escalations int // RN-Tree ancestor climbs
	WalkHops    int // random-walk hops
}

// Overlay routes jobs to their owner nodes (DESIGN.md §11).
type Overlay interface {
	// RouteJobs routes a batch of jobs by their ID and Cons: routes[i]
	// answers jobs[i]. One job's failure is its own Err and leaves its
	// batch-mates routed. A single job is a batch of one.
	RouteJobs(rt transport.Runtime, jobs []Profile) []Route
}

// Route is one job's answer from Overlay.RouteJobs: its owner and the
// overlay hops its route took, or the error that stopped it.
type Route struct {
	Owner transport.Addr
	Hops  int
	Err   error
}

// Matchmaker chooses run nodes; it executes on the owner's host
// (DESIGN.md §11).
type Matchmaker interface {
	// FindRunNodes chooses a run node for each of a batch of jobs:
	// results[i] answers reqs[i]. One job's failure is its own Err and
	// leaves its batch-mates matched. An owner matches the jobs it took
	// in one hand-off as one batch; a lone job (a rematch, an adoption,
	// a voting replica) is a batch of one.
	FindRunNodes(rt transport.Runtime, reqs []MatchReq) []MatchResult
}

// MatchReq is one job's matchmaking request: its constraints and the
// run nodes it must not be given.
type MatchReq struct {
	Cons    resource.Constraints
	Exclude []transport.Addr
}

// MatchResult is one job's answer from Matchmaker.FindRunNodes: the run
// node chosen and what finding it cost, or the error that left the job
// unmatched.
type MatchResult struct {
	Run   transport.Addr
	Stats MatchStats
	Err   error
}

// EventKind enumerates job lifecycle events.
type EventKind int

// Lifecycle events recorded through the Recorder.
const (
	EvSubmitted EventKind = iota
	EvInjected
	EvOwned
	EvMatched
	EvMatchFailed
	EvEnqueued
	EvStarted
	EvCompleted
	EvResultDelivered
	EvRunFailureDetected
	EvOwnerFailureDetected
	EvOwnerAdopted
	EvResubmitted
	EvDropped
	EvGaveUp
	EvCheckpointed
	EvResumed
	// Sabotage-tolerance events (appended — earlier kinds keep their
	// values so pre-voting traces stay comparable).
	EvVoted        // a replica's digest was tallied at the owner
	EvAccepted     // quorum reached; Digest is the winning digest
	EvRejected     // a replica dissented from the accepted digest
	EvQuorumFailed // replica/rematch budget exhausted without quorum
	EvReputation   // a peer's trust score changed; Delta is the change
	EvBlacklisted  // the change crossed the peer into the blacklist
	EvProbed       // a known-answer probe completed; Delta is the change
	// Replication events (appended; see DESIGN.md §10).
	EvPromoted // a replica took ownership of a job after owner death
	EvHandoff  // a promoted/restored owner re-established the execution path
	EvDemoted  // a stale owner stood down after being fenced
	EvRestored // a replica handed a restarted owner its job state back
	// Backpressure events (appended; see DESIGN.md §11).
	EvInjectRejected // an at-capacity owner refused an injection with retry-after
)

var eventNames = [...]string{
	"submitted", "injected", "owned", "matched", "match-failed",
	"enqueued", "started", "completed", "result-delivered",
	"run-failure-detected", "owner-failure-detected", "owner-adopted",
	"resubmitted", "dropped", "gave-up", "checkpointed", "resumed",
	"voted", "accepted", "rejected", "quorum-failed", "reputation",
	"blacklisted", "probed",
	"promoted", "handoff", "demoted", "restored",
	"inject-rejected",
}

func (k EventKind) String() string {
	if int(k) < len(eventNames) {
		return eventNames[k]
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Event is one recorded lifecycle step.
type Event struct {
	Kind    EventKind
	JobID   ids.ID
	Attempt int
	At      time.Duration
	Node    transport.Addr
	Hops    int
	Match   MatchStats
	// Progress carries event-specific work accounting: the snapshot's
	// completed work for EvCheckpointed, the resume offset for
	// EvStarted/EvResumed, the checkpointed work salvageable at the
	// point of failure for EvRunFailureDetected, and the job's nominal
	// work for EvResultDelivered.
	Progress time.Duration
	// Digest carries the result fingerprint: the expected (correct)
	// digest on EvSubmitted, the replica's digest on EvVoted, the
	// winning digest on EvAccepted, and the delivered digest on
	// EvResultDelivered — the ground-truth channel wrong-accept
	// accounting compares.
	Digest string
	// Delta is the reputation change for EvReputation/EvBlacklisted/
	// EvProbed.
	Delta float64
	// Seq is the client-local submission number on EvSubmitted, letting
	// collectors recompute the expected digest independently.
	Seq int
}

// Recorder receives lifecycle events; experiment harnesses install one
// shared recorder to compute wait times and recovery counts.
type Recorder interface {
	Record(ev Event)
}

// RecorderFunc adapts a function to the Recorder interface.
type RecorderFunc func(ev Event)

// Record implements Recorder.
func (f RecorderFunc) Record(ev Event) { f(ev) }

type nopRecorder struct{}

func (nopRecorder) Record(Event) {}
