// Package replica is a generic successor-list replication subsystem:
// each node pushes the records it owns to the first k live successors
// of its ring position, an anti-entropy loop reconciles replica sets
// after churn, and replicas that detect an owner's death promote
// themselves — when the ring says the key is now theirs, or when they
// are the first surviving member of the record's ranked replica list
// (owners place records off their ring position in some deployments,
// e.g. the grid's random-walk owner spreading, so ring ownership alone
// cannot elect a successor).
//
// The package is deliberately ignorant of what the records mean. The
// grid layer stores owner-side job state in it (DESIGN.md §10); the
// application reacts to ownership changes through two callbacks:
//
//   - OnOwn(rec, promoted): this node just became responsible for rec —
//     either it promoted itself after the owner died (promoted=true) or
//     a replica pushed back a record this node owned before it crashed
//     and restarted (promoted=false).
//   - OnFenced(rec): a newer record owned elsewhere displaced one this
//     node was serving — a stale owner must stand down.
//
// Consistency model: single-writer per record (the owner), with
// (Epoch, Version) ordering. Version counts the owner's own writes;
// Epoch counts ownership transfers. Any takeover — promotion, adoption,
// a restarted owner reclaiming its key — opens a new epoch above the
// highest it has seen, so the previous owner's unsynced writes lose.
// Races where both sides of a healed partition claim a key resolve
// asymmetrically: only the node the ring says owns the key re-asserts
// (escalating above the remote epoch); everyone else defers. Tombstones
// are terminal and always win regardless of ring position.
package replica

import (
	"bytes"
	"sort"
	"sync"
	"time"

	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/transport"
)

// Ring abstracts the overlay: who am I, who replicates for me, and
// which keys are mine. Implementations must be safe for concurrent use.
type Ring interface {
	Self() transport.Addr
	// Successors returns up to k distinct live peers, nearest first,
	// excluding the node itself.
	Successors(k int) []transport.Addr
	// Owns reports whether this node is currently the ring's owner
	// (first successor) of key.
	Owns(key ids.ID) bool
}

// Record is one replicated entry.
type Record struct {
	Key     ids.ID
	Epoch   int // ownership generation; bumped on every takeover
	Version int // owner-local write counter within the epoch
	Owner   transport.Addr
	Deleted bool // tombstone: the record's lifecycle ended at the owner
	// Reps is the owner's ranked replica list (its push targets, nearest
	// first) as of this version. It rides the record so replicas agree
	// on promotion order after the owner dies without consulting the
	// ring: the first member still alive and still holding the record
	// promotes; everyone behind it defers.
	Reps []transport.Addr
	Data []byte
}

// Newer reports whether r supersedes o. Epochs dominate versions;
// the owner address breaks exact ties deterministically so two nodes
// that somehow mint the same (epoch, version) still converge.
func (r Record) Newer(o Record) bool {
	return newer(r.Epoch, r.Version, r.Owner, o.Epoch, o.Version, o.Owner)
}

func newer(ae, av int, ao transport.Addr, be, bv int, bo transport.Addr) bool {
	if ae != be {
		return ae > be
	}
	if av != bv {
		return av > bv
	}
	return ao > bo
}

// Meta is a record's identity and ordering fields without the payload,
// exchanged during anti-entropy to avoid shipping bodies needlessly.
type Meta struct {
	Key     ids.ID
	Epoch   int
	Version int
	Owner   transport.Addr
	Deleted bool
}

func metaOf(r Record) Meta {
	return Meta{Key: r.Key, Epoch: r.Epoch, Version: r.Version, Owner: r.Owner, Deleted: r.Deleted}
}

// Wire methods.
const (
	MPut   = "replica.put"   // PutReq -> PutResp: ship full records
	MSync  = "replica.sync"  // SyncReq -> SyncResp: reconcile by meta
	MProbe = "replica.probe" // ProbeReq -> ProbeResp: owner liveness
)

// PutReq ships full records to a replica.
type PutReq struct {
	From transport.Addr
	Recs []Record
}

// PutResp returns records the receiver holds that supersede the pushed
// ones (including escalations the receiver just minted to fence the
// sender off a key the ring says is the receiver's).
type PutResp struct {
	Newer []Record
}

// SyncReq announces the sender's view of a set of records by meta only.
type SyncReq struct {
	From  transport.Addr
	Metas []Meta
}

// SyncResp partitions the announced metas: Want lists keys the receiver
// is missing or holds stale, Newer returns full records where the
// receiver is ahead.
type SyncResp struct {
	Want  []ids.ID
	Newer []Record
}

// ProbeReq asks a record owner whether it still serves these keys.
type ProbeReq struct {
	From transport.Addr
	Keys []ids.ID
}

// ProbeResp lists the probed keys the receiver currently owns
// (tombstoned entries included — owning a tombstone still proves the
// owner is alive and authoritative). Since is when the receiver's
// manager last (re)started: a prober distinguishes an owner that lost
// records to a crash/restart (Since postdates the prober's copy —
// push it back) from one that dropped them deliberately, a completed
// job whose tombstone was GC'd (Since predates the copy — forget it,
// never resurrect it).
type ProbeResp struct {
	Owned []Meta
	Since time.Duration
	// Has lists the probed keys the receiver stores at all, under any
	// owner and including tombstones. Replicas probing their peers
	// during a takeover use it to tell a live peer that will handle the
	// promotion itself (it has the record) from one that cannot (it
	// never got the record, or already reclaimed it).
	Has []ids.ID
}

// gcAfter is how long tombstones are retained so late replicas learn
// of the deletion instead of resurrecting the record.
const gcAfter = 2 * time.Minute

// Config parameterizes a Manager.
type Config struct {
	// K is the replication degree: records push to the first K
	// successors.
	K int
	// PushEvery is the anti-entropy period (owner side).
	PushEvery time.Duration
	// ProbeEvery is the owner-liveness probe period (replica side).
	ProbeEvery time.Duration
	// DeadAfter is how long an owner must fail probes before replicas
	// take over its keys.
	DeadAfter time.Duration
	// OnOwn fires when this node becomes responsible for a record:
	// promoted=true for a takeover after owner death, false when a
	// replica restores a record this (restarted) node already owned.
	// Called without the manager lock held.
	OnOwn func(rt transport.Runtime, rec Record, promoted bool)
	// OnFenced fires when a newer record owned elsewhere displaces one
	// this node was serving. Called without the manager lock held.
	OnFenced func(rt transport.Runtime, rec Record)
	// Obs, when non-nil, receives replica counters and gauges.
	Obs *obs.Obs
	// MethodPrefix is prepended to the wire method names this manager
	// registers and calls ("" keeps the canonical "replica.*" names).
	// A host can then run several independent managers — the grid's
	// owner-state manager and the pub/sub subsystem's subscriber-list
	// manager — without their RPC handlers clashing. Both sides of a
	// deployment must agree on the prefix.
	MethodPrefix string
}

func (c Config) withDefaults() Config {
	if c.PushEvery == 0 {
		c.PushEvery = time.Second
	}
	if c.ProbeEvery == 0 {
		c.ProbeEvery = time.Second
	}
	if c.DeadAfter == 0 {
		c.DeadAfter = 3 * time.Second
	}
	return c
}

type ackVer struct {
	epoch, version int
}

type entry struct {
	rec    Record
	acked  map[transport.Addr]ackVer // per-replica last version confirmed stored
	deadAt time.Duration             // when the tombstone was learned (GC clock)
	at     time.Duration             // when a remote write last set rec (restore fencing)
}

func (e *entry) ack(tgt transport.Addr, rec Record) {
	if e.acked == nil {
		e.acked = make(map[transport.Addr]ackVer)
	}
	e.acked[tgt] = ackVer{epoch: rec.Epoch, version: rec.Version}
}

// Manager runs the replication protocol for one node.
type Manager struct {
	host transport.Host
	ring Ring
	cfg  Config

	// Wire method names after applying cfg.MethodPrefix.
	mPut, mSync, mProbe string

	mu       sync.Mutex
	recs     map[ids.ID]*entry
	silent   map[transport.Addr]time.Duration // owner -> first failed probe
	started  bool
	kicking  bool
	since    time.Duration // first activity after the last (re)start
	sinceSet bool

	// Instruments (nil-safe when cfg.Obs is nil).
	mPuts      *obs.Counter
	mPutRecv   *obs.Counter
	mSyncs     *obs.Counter
	mProbes    *obs.Counter
	mPromoted  *obs.Counter
	mRestored  *obs.Counter
	mFenced    *obs.Counter
	mReclaimed *obs.Counter
}

// markAlive stamps the manager's first activity after a (re)start.
// Every loop tick and handler calls it, so the stamp can neither
// predate a restart nor postdate the first record this node pushes.
func (m *Manager) markAlive(now time.Duration) {
	m.mu.Lock()
	if !m.sinceSet {
		m.since = now
		m.sinceSet = true
	}
	m.mu.Unlock()
}

// New creates a manager bound to host and registers its RPC handlers.
// Call Start to launch the periodic loops.
func New(host transport.Host, ring Ring, cfg Config) *Manager {
	m := &Manager{
		host:   host,
		ring:   ring,
		cfg:    cfg.withDefaults(),
		recs:   make(map[ids.ID]*entry),
		silent: make(map[transport.Addr]time.Duration),
	}
	m.mPut = m.cfg.MethodPrefix + MPut
	m.mSync = m.cfg.MethodPrefix + MSync
	m.mProbe = m.cfg.MethodPrefix + MProbe
	if reg := m.cfg.Obs.Registry(); reg != nil {
		m.mPuts = reg.Counter("replica_puts_total")
		m.mPutRecv = reg.Counter("replica_put_received_total")
		m.mSyncs = reg.Counter("replica_syncs_total")
		m.mProbes = reg.Counter("replica_probes_total")
		m.mPromoted = reg.Counter("replica_promotions_total")
		m.mRestored = reg.Counter("replica_restores_total")
		m.mFenced = reg.Counter("replica_fenced_total")
		m.mReclaimed = reg.Counter("replica_reclaimed_total")
		reg.GaugeFunc("replica_records", func() float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			return float64(len(m.recs))
		})
		reg.GaugeFunc("replica_owned", func() float64 {
			self := m.ring.Self()
			m.mu.Lock()
			defer m.mu.Unlock()
			n := 0
			for _, e := range m.recs {
				if e.rec.Owner == self && !e.rec.Deleted {
					n++
				}
			}
			return float64(n)
		})
	}
	host.Handle(m.mPut, m.handlePut)
	host.Handle(m.mSync, m.handleSync)
	host.Handle(m.mProbe, m.handleProbe)
	return m
}

// Start launches the push and probe loops. Safe to call again after
// Reset (a crash/restart cycle).
func (m *Manager) Start() {
	m.mu.Lock()
	if m.started {
		m.mu.Unlock()
		return
	}
	m.started = true
	m.mu.Unlock()
	m.host.Go("replica.push", func(rt transport.Runtime) {
		for {
			rt.Sleep(transport.Jitter(rt, m.cfg.PushEvery))
			m.pushOnce(rt)
		}
	})
	m.host.Go("replica.probe", func(rt transport.Runtime) {
		for {
			rt.Sleep(transport.Jitter(rt, m.cfg.ProbeEvery))
			m.probeOnce(rt)
		}
	})
}

// Reset clears all replicated state and marks the loops stopped, for a
// crash/restart cycle (the crash killed the loop procs; restart calls
// Reset then Start). A restarted node recovers its records from the
// replicas that survived, via their probe push-back.
func (m *Manager) Reset() {
	m.mu.Lock()
	m.recs = make(map[ids.ID]*entry)
	m.silent = make(map[transport.Addr]time.Duration)
	m.started = false
	m.kicking = false
	m.sinceSet = false
	m.mu.Unlock()
}

// Kick schedules one immediate push+probe round, coalescing bursts.
// The overlay calls it on ring changes (new successor, dead
// predecessor) so re-targeting and takeover don't wait a full period.
func (m *Manager) Kick() {
	m.mu.Lock()
	if !m.started || m.kicking {
		m.mu.Unlock()
		return
	}
	m.kicking = true
	m.mu.Unlock()
	m.host.Go("replica.kick", func(rt transport.Runtime) {
		m.mu.Lock()
		m.kicking = false
		m.mu.Unlock()
		m.pushOnce(rt)
		m.probeOnce(rt)
	})
}

// Publish writes (or overwrites) the record for key with this node as
// owner. If the entry was last owned elsewhere — adoption, promotion
// already applied, or a tombstone being superseded by a new lifecycle —
// a fresh epoch above the stored one fences the previous owner out.
func (m *Manager) Publish(key ids.ID, data []byte) {
	self := m.ring.Self()
	m.mu.Lock()
	e, ok := m.recs[key]
	if !ok {
		e = &entry{rec: Record{Key: key, Owner: self}}
		m.recs[key] = e
	} else if e.rec.Owner != self || e.rec.Deleted {
		e.rec.Epoch++
		e.rec.Version = -1
		e.rec.Owner = self
		e.rec.Deleted = false
		e.acked = nil
	}
	e.rec.Version++
	e.rec.Data = data
	e.deadAt = 0
	m.mu.Unlock()
}

// Delete tombstones a record this node owns (the job finished); the
// tombstone replicates like any write and is GC'd after gcAfter.
func (m *Manager) Delete(now time.Duration, key ids.ID) {
	self := m.ring.Self()
	m.mu.Lock()
	if e, ok := m.recs[key]; ok && e.rec.Owner == self && !e.rec.Deleted {
		e.rec.Version++
		e.rec.Deleted = true
		e.rec.Data = nil
		e.deadAt = now
	}
	m.mu.Unlock()
}

// Responsible reports whether, as far as this node can tell, SOME node
// is still responsible for key: this node owns it, or it holds a
// replica whose owner has not been failing probes past DeadAfter.
// The grid answers client liveness checks with it so a job mid-handoff
// is not needlessly resubmitted — but a record whose owner is dead with
// no promotion in sight does NOT count, keeping the client's resubmit
// path as the final backstop.
func (m *Manager) Responsible(now time.Duration, key ids.ID) bool {
	self := m.ring.Self()
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.recs[key]
	if !ok || e.rec.Deleted {
		return false
	}
	if e.rec.Owner == self {
		return true
	}
	if since, failing := m.silent[e.rec.Owner]; failing && now-since >= m.cfg.DeadAfter {
		return false
	}
	return true
}

// PeerStatus is one replica's acknowledgement state, owner side.
type PeerStatus struct {
	Addr    transport.Addr
	Epoch   int
	Version int
	Acked   bool // replica confirmed storing the current (epoch, version)
}

// Status is a point-in-time view of one record for diagnostics
// (the grid.replicas RPC / gridctl replicas).
type Status struct {
	Known   bool
	Owner   transport.Addr
	Epoch   int
	Version int
	Deleted bool
	// Peers lists the current successor set and what each last acked;
	// populated only on the record's owner.
	Peers []PeerStatus
}

// Status reports the record's current ordering fields and, if this
// node owns it, the per-replica acknowledgement state.
func (m *Manager) Status(key ids.ID) Status {
	self := m.ring.Self()
	targets := m.ring.Successors(m.cfg.K)
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.recs[key]
	if !ok {
		return Status{}
	}
	st := Status{
		Known:   true,
		Owner:   e.rec.Owner,
		Epoch:   e.rec.Epoch,
		Version: e.rec.Version,
		Deleted: e.rec.Deleted,
	}
	if e.rec.Owner == self {
		for _, tgt := range targets {
			ps := PeerStatus{Addr: tgt}
			if av, ok := e.acked[tgt]; ok {
				ps.Epoch = av.epoch
				ps.Version = av.version
				ps.Acked = av == ackVer{epoch: e.rec.Epoch, version: e.rec.Version}
			}
			st.Peers = append(st.Peers, ps)
		}
	}
	return st
}

// pushOnce runs one owner-side anti-entropy round: announce every
// owned record to each of the first K successors, ship the ones they
// lack, absorb anything they hold that supersedes ours, and finally
// drop expired tombstones.
func (m *Manager) pushOnce(rt transport.Runtime) {
	m.markAlive(rt.Now())
	self := m.ring.Self()
	targets := m.ring.Successors(m.cfg.K)
	m.mu.Lock()
	keys := make([]ids.ID, 0, len(m.recs))
	for k, e := range m.recs {
		if e.rec.Owner == self {
			if !addrsEqual(e.rec.Reps, targets) {
				// Retargeting is an owner write: the ranked replica
				// list must reach the replicas so they agree on
				// promotion order should this node die.
				e.rec.Reps = append([]transport.Addr(nil), targets...)
				e.rec.Version++
				e.acked = nil
			}
			keys = append(keys, k)
		}
	}
	sortIDs(keys)
	metas := make([]Meta, 0, len(keys))
	for _, k := range keys {
		metas = append(metas, metaOf(m.recs[k].rec))
	}
	m.mu.Unlock()
	if len(metas) > 0 {
		for _, tgt := range targets {
			m.syncTarget(rt, tgt, metas)
		}
	}
	m.gc(rt.Now())
}

// syncTarget reconciles one replica: meta exchange first, full records
// only for what it actually lacks.
func (m *Manager) syncTarget(rt transport.Runtime, tgt transport.Addr, metas []Meta) {
	self := m.ring.Self()
	m.mSyncs.Inc()
	raw, err := rt.Call(tgt, m.mSync, SyncReq{From: self, Metas: metas})
	if err != nil {
		return
	}
	resp := raw.(SyncResp)
	m.absorbNewer(rt, resp.Newer)
	wanted := make(map[ids.ID]bool, len(resp.Want))
	for _, k := range resp.Want {
		wanted[k] = true
	}
	superseded := make(map[ids.ID]bool, len(resp.Newer))
	for _, r := range resp.Newer {
		superseded[r.Key] = true
	}
	m.mu.Lock()
	var push []Record
	for _, meta := range metas {
		e, ok := m.recs[meta.Key]
		if !ok || e.rec.Owner != self {
			continue // lost ownership since the snapshot
		}
		if wanted[meta.Key] {
			push = append(push, e.rec)
		} else if !superseded[meta.Key] &&
			e.rec.Epoch == meta.Epoch && e.rec.Version == meta.Version {
			// Neither wanted nor superseded: the replica already stores
			// exactly what we announced.
			e.ack(tgt, e.rec)
		}
	}
	m.mu.Unlock()
	if len(push) == 0 {
		return
	}
	m.mPuts.Inc()
	praw, err := rt.Call(tgt, m.mPut, PutReq{From: self, Recs: push})
	if err != nil {
		return
	}
	presp := praw.(PutResp)
	m.absorbNewer(rt, presp.Newer)
	rejected := make(map[ids.ID]bool, len(presp.Newer))
	for _, r := range presp.Newer {
		rejected[r.Key] = true
	}
	m.mu.Lock()
	for _, rec := range push {
		if rejected[rec.Key] {
			continue
		}
		if e, ok := m.recs[rec.Key]; ok && e.rec.Owner == self &&
			e.rec.Epoch == rec.Epoch && e.rec.Version == rec.Version {
			e.ack(tgt, rec)
		}
	}
	m.mu.Unlock()
}

// probeOnce runs one replica-side round: probe every distinct owner we
// replicate for; owners failing past DeadAfter lose their keys to the
// ring's new successor, owners that answer but no longer hold a record
// (crash + restart wiped them) get it pushed back.
func (m *Manager) probeOnce(rt transport.Runtime) {
	m.markAlive(rt.Now())
	self := m.ring.Self()
	m.mu.Lock()
	byOwner := make(map[transport.Addr][]ids.ID)
	for k, e := range m.recs {
		if e.rec.Owner != self && !e.rec.Deleted {
			byOwner[e.rec.Owner] = append(byOwner[e.rec.Owner], k)
		}
	}
	owners := make([]transport.Addr, 0, len(byOwner))
	for o := range byOwner {
		owners = append(owners, o)
		sortIDs(byOwner[o])
	}
	m.mu.Unlock()
	sort.Slice(owners, func(i, j int) bool { return owners[i] < owners[j] })

	for _, owner := range owners {
		keys := byOwner[owner]
		m.mProbes.Inc()
		raw, err := rt.Call(owner, m.mProbe, ProbeReq{From: self, Keys: keys})
		if err != nil {
			now := rt.Now()
			m.mu.Lock()
			since, failing := m.silent[owner]
			if !failing {
				since = now
				m.silent[owner] = since
			}
			dead := now-since >= m.cfg.DeadAfter
			m.mu.Unlock()
			if dead {
				m.takeover(rt, owner, keys)
			}
			continue
		}
		m.mu.Lock()
		delete(m.silent, owner)
		m.mu.Unlock()
		resp := raw.(ProbeResp)
		owned := make(map[ids.ID]bool, len(resp.Owned))
		for _, meta := range resp.Owned {
			owned[meta.Key] = true
		}
		var restore []Record
		m.mu.Lock()
		for _, k := range keys {
			if owned[k] {
				continue
			}
			e, ok := m.recs[k]
			if !ok || e.rec.Owner != owner || e.rec.Deleted {
				continue
			}
			if resp.Since > e.at {
				// The owner restarted after we stored this record: it
				// lost it to a crash. Push our copy back so it resumes
				// its jobs instead of orphaning them.
				restore = append(restore, e.rec)
				continue
			}
			// The owner has been up since before we stored this record,
			// so its absence is deliberate: the lifecycle ended and the
			// tombstone was GC'd, or ownership moved on while we were
			// out of the replica set. Forget our copy — pushing it back
			// would resurrect a finished job as a zombie execution.
			delete(m.recs, k)
			m.mReclaimed.Inc()
		}
		m.mu.Unlock()
		if len(restore) > 0 {
			m.mPuts.Inc()
			if praw, err := rt.Call(owner, m.mPut, PutReq{From: self, Recs: restore}); err == nil {
				m.absorbNewer(rt, praw.(PutResp).Newer)
			}
		}
	}
}

// takeover promotes this node to owner of the dead owner's keys. Two
// independent claims elect the new owner:
//
//   - the ring now assigns the key to this node (an owner that sat at
//     its ring position, classic successor takeover), or
//   - this node is the first member of the record's ranked replica
//     list (Record.Reps) that is still alive and still holds the
//     record. This is the path for owners placed off their ring
//     position (the grid's random-walk owner spreading): no replica
//     will ever ring-own such a key, so rank breaks the tie instead.
//
// Earlier-ranked peers are ruled out by probing them: dead past
// DeadAfter, or alive but without the record, forfeits the rank. A
// live peer that still holds the record vetoes us — it will promote
// on its own probe schedule. The epoch bump fences the dead owner out
// should it resurface; a double promotion lost to a transient
// disagreement resolves the same way.
func (m *Manager) takeover(rt transport.Runtime, owner transport.Addr, keys []ids.ID) {
	self := m.ring.Self()
	var took []Record
	blocked := make(map[ids.ID][]transport.Addr)
	m.mu.Lock()
	for _, k := range keys {
		e, ok := m.recs[k]
		if !ok || e.rec.Owner != owner || e.rec.Deleted {
			continue
		}
		if m.ring.Owns(k) {
			took = append(took, m.promoteLocked(e))
			continue
		}
		rank := addrIndex(e.rec.Reps, self)
		if rank < 0 {
			continue // a stale copy outside the owner's replica set never promotes
		}
		blocked[k] = e.rec.Reps[:rank]
	}
	m.mu.Unlock()

	if len(blocked) > 0 {
		veto := m.probePeers(rt, blocked)
		bkeys := make([]ids.ID, 0, len(blocked))
		for k := range blocked {
			bkeys = append(bkeys, k)
		}
		sortIDs(bkeys)
		m.mu.Lock()
		for _, k := range bkeys {
			if veto[k] {
				continue
			}
			if e, ok := m.recs[k]; ok && e.rec.Owner == owner && !e.rec.Deleted {
				took = append(took, m.promoteLocked(e))
			}
		}
		m.mu.Unlock()
	}

	for _, rec := range took {
		m.mPromoted.Inc()
		if m.cfg.OnOwn != nil {
			m.cfg.OnOwn(rt, rec, true)
		}
	}
}

// promoteLocked applies the ownership transfer to an entry; the caller
// holds m.mu and fires OnOwn after releasing it.
func (m *Manager) promoteLocked(e *entry) Record {
	e.rec.Epoch++
	e.rec.Version = 0
	e.rec.Owner = m.ring.Self()
	e.acked = nil
	return e.rec
}

// probePeers decides, for each blocked key, whether an earlier-ranked
// replica vetoes this node's promotion. A peer that answers and still
// stores the key keeps its claim (and the prober syncs against it, so
// a peer that already promoted hands over the new ownership record
// immediately); a peer dead past DeadAfter, or alive without the key,
// forfeits its rank.
func (m *Manager) probePeers(rt transport.Runtime, blocked map[ids.ID][]transport.Addr) map[ids.ID]bool {
	self := m.ring.Self()
	byPeer := make(map[transport.Addr][]ids.ID)
	for k, peers := range blocked {
		for _, p := range peers {
			byPeer[p] = append(byPeer[p], k)
		}
	}
	peers := make([]transport.Addr, 0, len(byPeer))
	for p := range byPeer {
		peers = append(peers, p)
		sortIDs(byPeer[p])
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })

	veto := make(map[ids.ID]bool)
	for _, p := range peers {
		keys := byPeer[p]
		m.mProbes.Inc()
		raw, err := rt.Call(p, m.mProbe, ProbeReq{From: self, Keys: keys})
		if err != nil {
			now := rt.Now()
			m.mu.Lock()
			since, failing := m.silent[p]
			if !failing {
				since = now
				m.silent[p] = since
			}
			dead := now-since >= m.cfg.DeadAfter
			m.mu.Unlock()
			if !dead {
				for _, k := range keys {
					veto[k] = true // not ruled out yet: wait out DeadAfter
				}
			}
			continue
		}
		m.mu.Lock()
		delete(m.silent, p)
		m.mu.Unlock()
		resp := raw.(ProbeResp)
		has := make(map[ids.ID]bool, len(resp.Has))
		for _, k := range resp.Has {
			has[k] = true
		}
		var metas []Meta
		m.mu.Lock()
		for _, k := range keys {
			if !has[k] {
				continue
			}
			veto[k] = true
			if e, ok := m.recs[k]; ok {
				metas = append(metas, metaOf(e.rec))
			}
		}
		m.mu.Unlock()
		if len(metas) > 0 {
			// Learn whatever the peer holds that supersedes our copy —
			// if it already promoted, this re-aims our probes at it and
			// ends the dead-owner polling.
			m.mSyncs.Inc()
			if sraw, err := rt.Call(p, m.mSync, SyncReq{From: self, Metas: metas}); err == nil {
				m.absorbNewer(rt, sraw.(SyncResp).Newer)
			}
		}
	}
	return veto
}

// absorbNewer folds records a peer proved are ahead of ours into the
// store, applying the fencing rules (see handlePut for the cases).
func (m *Manager) absorbNewer(rt transport.Runtime, recs []Record) {
	if len(recs) == 0 {
		return
	}
	self := m.ring.Self()
	now := rt.Now()
	var fenced, restored []Record
	m.mu.Lock()
	for _, rec := range recs {
		e, ok := m.recs[rec.Key]
		if !ok {
			ne := &entry{rec: rec, at: now}
			if rec.Deleted {
				ne.deadAt = now
			}
			m.recs[rec.Key] = ne
			if rec.Owner == self && !rec.Deleted {
				restored = append(restored, rec)
			}
			continue
		}
		if !rec.Newer(e.rec) {
			continue
		}
		if e.rec.Owner == self && rec.Owner != self && !e.rec.Deleted {
			if !rec.Deleted && m.ring.Owns(rec.Key) {
				// The ring says the key is ours: re-assert above the
				// remote epoch instead of deferring (a stale pre-crash
				// replica is pushing an old lifecycle at us).
				e.rec.Epoch = rec.Epoch + 1
				e.rec.Version = 0
				e.acked = nil
				continue
			}
			e.rec = rec
			e.acked = nil
			e.at = now
			if rec.Deleted {
				e.deadAt = now
			}
			fenced = append(fenced, rec)
			continue
		}
		wasOurs := e.rec.Owner == self && !e.rec.Deleted
		e.rec = rec
		e.acked = nil
		e.at = now
		if rec.Deleted {
			e.deadAt = now
		}
		if rec.Owner == self && !rec.Deleted && !wasOurs {
			restored = append(restored, rec)
		}
	}
	m.mu.Unlock()
	m.fire(rt, fenced, restored)
}

func (m *Manager) fire(rt transport.Runtime, fenced, restored []Record) {
	for _, rec := range fenced {
		m.mFenced.Inc()
		if m.cfg.OnFenced != nil {
			m.cfg.OnFenced(rt, rec)
		}
	}
	for _, rec := range restored {
		m.mRestored.Inc()
		if m.cfg.OnOwn != nil {
			m.cfg.OnOwn(rt, rec, false)
		}
	}
}

// gc drops tombstones past their retention and prunes liveness state
// for owners no record references anymore.
func (m *Manager) gc(now time.Duration) {
	m.mu.Lock()
	referenced := make(map[transport.Addr]bool)
	for k, e := range m.recs {
		if e.rec.Deleted && e.deadAt > 0 && now-e.deadAt >= gcAfter {
			delete(m.recs, k)
			continue
		}
		referenced[e.rec.Owner] = true
		// Replica-list peers carry liveness clocks too (rank-based
		// takeover); keep theirs while any record still names them.
		for _, p := range e.rec.Reps {
			referenced[p] = true
		}
	}
	for o := range m.silent {
		if !referenced[o] {
			delete(m.silent, o)
		}
	}
	m.mu.Unlock()
}

// handlePut stores pushed records, resolving conflicts:
//
//   - unknown record: store it; if it names this node as owner it is a
//     restore (this node crashed, restarted, and a replica is handing
//     its state back) -> OnOwn(promoted=false).
//   - incoming not newer: reject; return our record if strictly newer.
//   - incoming newer but we are actively serving the record and the
//     ring still assigns us the key: escalate above the remote epoch
//     and return the escalated record (asymmetric fencing — exactly one
//     side of a conflict may escalate, so epochs cannot war forever).
//   - incoming newer, owned elsewhere, and we were serving it (ring
//     moved on, or it is a tombstone): defer and OnFenced.
//   - incoming newer otherwise: plain replica update.
func (m *Manager) handlePut(rt transport.Runtime, from transport.Addr, req any) (any, error) {
	p := req.(PutReq)
	m.mPutRecv.Inc()
	m.markAlive(rt.Now())
	self := m.ring.Self()
	now := rt.Now()
	var resp PutResp
	var fenced, restored []Record
	m.mu.Lock()
	for _, rec := range p.Recs {
		e, ok := m.recs[rec.Key]
		if !ok {
			ne := &entry{rec: rec, at: now}
			if rec.Deleted {
				ne.deadAt = now
			}
			m.recs[rec.Key] = ne
			if rec.Owner == self && !rec.Deleted {
				restored = append(restored, rec)
			}
			continue
		}
		if !rec.Newer(e.rec) {
			if e.rec.Newer(rec) {
				resp.Newer = append(resp.Newer, e.rec)
			}
			continue
		}
		if e.rec.Owner == self && rec.Owner != self && !e.rec.Deleted {
			if !rec.Deleted && m.ring.Owns(rec.Key) {
				e.rec.Epoch = rec.Epoch + 1
				e.rec.Version = 0
				e.acked = nil
				resp.Newer = append(resp.Newer, e.rec)
				continue
			}
			e.rec = rec
			e.acked = nil
			e.at = now
			if rec.Deleted {
				e.deadAt = now
			}
			fenced = append(fenced, rec)
			continue
		}
		wasOurs := e.rec.Owner == self && !e.rec.Deleted
		e.rec = rec
		e.acked = nil
		e.at = now
		if rec.Deleted {
			e.deadAt = now
		}
		if rec.Owner == self && !rec.Deleted && !wasOurs {
			restored = append(restored, rec)
		}
	}
	m.mu.Unlock()
	m.fire(rt, fenced, restored)
	return resp, nil
}

// handleSync answers a meta announcement: which of these do I lack
// (Want), and which do I supersede (Newer, full records).
func (m *Manager) handleSync(rt transport.Runtime, from transport.Addr, req any) (any, error) {
	s := req.(SyncReq)
	m.markAlive(rt.Now())
	var resp SyncResp
	m.mu.Lock()
	for _, meta := range s.Metas {
		e, ok := m.recs[meta.Key]
		if !ok {
			if !meta.Deleted {
				resp.Want = append(resp.Want, meta.Key)
			}
			continue
		}
		if newer(meta.Epoch, meta.Version, meta.Owner, e.rec.Epoch, e.rec.Version, e.rec.Owner) {
			resp.Want = append(resp.Want, meta.Key)
		} else if newer(e.rec.Epoch, e.rec.Version, e.rec.Owner, meta.Epoch, meta.Version, meta.Owner) {
			resp.Newer = append(resp.Newer, e.rec)
		}
	}
	m.mu.Unlock()
	return resp, nil
}

// handleProbe answers which of the probed keys this node currently
// owns; answering at all proves liveness.
func (m *Manager) handleProbe(rt transport.Runtime, from transport.Addr, req any) (any, error) {
	p := req.(ProbeReq)
	m.markAlive(rt.Now())
	self := m.ring.Self()
	var resp ProbeResp
	m.mu.Lock()
	resp.Since = m.since
	for _, k := range p.Keys {
		e, ok := m.recs[k]
		if !ok {
			continue
		}
		resp.Has = append(resp.Has, k)
		if e.rec.Owner == self {
			resp.Owned = append(resp.Owned, metaOf(e.rec))
		}
	}
	m.mu.Unlock()
	return resp, nil
}

func addrsEqual(a, b []transport.Addr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func addrIndex(list []transport.Addr, a transport.Addr) int {
	for i, x := range list {
		if x == a {
			return i
		}
	}
	return -1
}

func sortIDs(keys []ids.ID) {
	sort.Slice(keys, func(i, j int) bool {
		return bytes.Compare(keys[i][:], keys[j][:]) < 0
	})
}
