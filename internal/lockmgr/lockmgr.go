// Package lockmgr is a software Lock Reservation Table: a named fair
// reader-writer lock service built on fairlock.RWMutex.
//
// The paper's LRT (§3.3–3.5) is a table-managing agent: it queues
// requesters for named locks in arrival order and guarantees forward
// progress when a holder disappears, spilling reservations to memory and
// recovering them on overflow. lockmgr mirrors that structure in
// software:
//
//   - named locks live in a table striped across power-of-two shards
//     (cache-padded), each entry wrapping a fairlock.RWMutex, created on
//     demand and garbage-collected after sitting idle;
//   - every acquisition belongs to a session with a lease deadline — the
//     software analogue of the LRT's reservation: a client that crashes
//     or stalls past its lease has its holds revoked and its queued
//     waiters cancelled (fairlock.LockCancel/RLockCancel), so the lock
//     always makes forward progress, and waiters behind the dead holder
//     are granted in unchanged arrival order;
//   - keepalives extend the lease, exactly as a live LCU keeps its
//     reservation current.
//
// The wire, client, and server subpackages expose the manager over a
// length-prefixed binary TCP protocol (cmd/lockd, cmd/lockload).
package lockmgr

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"fairrw/fairlock"
	"fairrw/internal/lockmgr/introspect"
	"fairrw/internal/stats"
)

// Errors returned by Manager operations. The wire layer maps each to a
// status code one-to-one.
var (
	ErrTimeout = errors.New("lockmgr: acquire timed out")
	ErrExpired = errors.New("lockmgr: session expired or unknown")
	ErrNotHeld = errors.New("lockmgr: lock not held by session")
	ErrHeld    = errors.New("lockmgr: session already holds this lock exclusively")
	ErrClosed  = errors.New("lockmgr: manager closed")
	ErrName    = errors.New("lockmgr: invalid lock name")
)

// MaxNameLen bounds lock names; the wire protocol enforces the same bound
// before a frame ever reaches the manager.
const MaxNameLen = 1024

// validName is the name check every acquire and release makes first, so
// a bad name is ErrName whatever the session's state.
func validName[T string | []byte](name T) bool {
	return len(name) > 0 && len(name) <= MaxNameLen
}

// Config parameterizes a Manager. The zero value selects the defaults.
type Config struct {
	// Shards is the number of table stripes; rounded up to a power of
	// two. Default 16.
	Shards int
	// SweepInterval is the lease-reaper period: the upper bound on how
	// long past its deadline a dead session keeps its holds. Leases are
	// clamped to at least this, so reclamation always happens within
	// 2x the (effective) lease. Default 10ms.
	SweepInterval time.Duration
	// DefaultLease is used when a session opens with lease <= 0.
	// Default 10s.
	DefaultLease time.Duration
	// MaxLease caps requested leases. Default 1m.
	MaxLease time.Duration
	// IdleTTL is how long an entry with no holders and no waiters
	// survives before the sweeper deletes it. Default 1s.
	IdleTTL time.Duration
	// Recorder, when non-nil, receives grant-path flight events: the
	// resolution of every queued acquire (grant, timeout, lease
	// revocation, with measured wait) and session lease expirations.
	// The try path is not recorded, grant or failed try alike — neither
	// has queue wait, which is the quantity the flight recorder
	// attributes — so the manager fast path never touches it.
	Recorder *introspect.Recorder
	// SlowLock is the slow-acquire threshold: a grant whose queue wait
	// reaches it is reported to SlowLockFn (and recorded as EvSlow).
	// Zero disables; only contended acquires ever check it.
	SlowLock time.Duration
	// SlowLockFn receives slow acquires (cmd/lockd logs them as
	// structured one-liners). Called from the granted acquirer's
	// goroutine; must not block.
	SlowLockFn func(name string, sid uint64, excl bool, wait time.Duration)
	// CohortBatch, when > 0, enables cohort grant batching on every
	// entry's lock with bound B = CohortBatch: a release may hand the
	// lock to up to B waiters from the releaser's cohort before strict
	// FIFO resumes (fairlock.CohortConfig). Zero leaves admission
	// strictly FIFO.
	CohortBatch int32
	// CohortFunc maps the acquiring goroutine to a cohort id when
	// CohortBatch is set. nil selects fairlock's default (the BRAVO
	// slot hash, i.e. a P-local shard); a server can map it to its
	// worker index, and a future distributed build to a node id.
	CohortFunc fairlock.CohortFunc
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 16
	}
	for c.Shards&(c.Shards-1) != 0 {
		c.Shards++
	}
	if c.SweepInterval <= 0 {
		c.SweepInterval = 10 * time.Millisecond
	}
	if c.DefaultLease <= 0 {
		c.DefaultLease = 10 * time.Second
	}
	if c.MaxLease <= 0 {
		c.MaxLease = time.Minute
	}
	if c.IdleTTL <= 0 {
		c.IdleTTL = time.Second
	}
	return c
}

// entry is one named lock in the table. refs counts holds plus in-flight
// acquirers (guarded by the owning shard's mu); an entry whose refs hit
// zero is deleted by the sweeper once it has been idle for IdleTTL.
type entry struct {
	name   string
	lock   fairlock.RWMutex
	refs   int
	idleAt time.Time
	shard  uint32 // index of the owning shard: introspect.Hash(name) & mask

	// Contention profile (Manager.HotLocks). acquires counts acquire
	// arrivals and is incremented at ref time, under the shard mutex the
	// ref already holds — the profile's hot-path cost on the uncontended
	// grant path is literally one increment on an already-owned line
	// (ExecBatch takes it back from an acquire it did not execute).
	// The wait fields are touched only by contended acquires (which are
	// already paying for timers and queueing), so they are atomics. The
	// table's memory is the live entry table's: a profile lives exactly
	// as long as its lock entry and is GC'd with it.
	acquires  uint64
	waitNS    atomic.Int64
	maxWaitNS atomic.Int64
}

// try is the lock-free acquire probe, the only place a table lock is
// tried.
func (e *entry) try(excl bool) bool {
	if excl {
		return e.lock.TryLock()
	}
	return e.lock.TryRLock()
}

// unlock releases one grant of the given mode.
func (e *entry) unlock(excl bool) {
	if excl {
		e.lock.Unlock()
	} else {
		e.lock.RUnlock()
	}
}

// shard is one stripe of the lock table, padded so that neighbouring
// shards' mutexes never share a cache line.
type shard struct {
	mu      sync.Mutex
	entries map[string]*entry
	_       [112]byte
}

// hold records what one session holds on one entry. Holds are keyed by
// lock name in the session (O(1) release lookup) and recycled through a
// one-element free list, so the steady acquire/release cycle does not
// allocate.
type hold struct {
	e       *entry
	shared  int
	excl    bool
	grantNS int64 // UnixNano of the most recent grant, for hold-time stats
}

// Session is one client's registration: a lease deadline, a revocation
// channel that cancellable acquires select on, and the set of holds to
// release when the session dies.
type Session struct {
	id     uint64
	cancel chan struct{}

	mu       sync.Mutex
	deadline time.Time
	closed   bool
	holds    map[string]*hold
	free     *hold
}

// Manager is the sharded, lease-based lock service. Create one with New;
// all methods are safe for concurrent use.
type Manager struct {
	cfg  Config
	mask uint32

	shards []shard

	smu      sync.RWMutex
	sessions map[uint64]*Session
	nextSID  uint64

	done   chan struct{}
	closed atomic.Bool
	wg     sync.WaitGroup

	c      counters
	waitMu sync.Mutex
	wait   stats.Histogram // grant wait, nanoseconds
	holdMu sync.Mutex
	holdH  stats.Histogram // hold time (grant to release), nanoseconds
}

// New creates a Manager and starts its lease reaper / entry sweeper.
// Callers must Close it to stop the background goroutine.
func New(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	m := &Manager{
		cfg:      cfg,
		mask:     uint32(cfg.Shards - 1),
		shards:   make([]shard, cfg.Shards),
		sessions: make(map[uint64]*Session),
		done:     make(chan struct{}),
	}
	for i := range m.shards {
		m.shards[i].entries = make(map[string]*entry)
	}
	m.wg.Add(1)
	go m.reaper()
	return m
}

// Close expires every session (releasing holds, cancelling waiters) and
// stops the background sweeper. Blocked acquires return ErrExpired.
func (m *Manager) Close() {
	if m.closed.Swap(true) {
		return
	}
	m.expireAll(false)
	close(m.done)
	m.wg.Wait()
}

// expireAll expires every session live at the call and returns how many.
func (m *Manager) expireAll(expired bool) int {
	m.smu.RLock()
	victims := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		victims = append(victims, s)
	}
	m.smu.RUnlock()
	for _, s := range victims {
		m.expireSession(s, expired)
	}
	return len(victims)
}

// MaxLease reports the effective cap on granted leases — every lease
// this manager hands out expires at most MaxLease past its last
// renewal. The cluster layer validates its failover window against it.
func (m *Manager) MaxLease() time.Duration { return m.cfg.MaxLease }

// RevokeAllSessions expires every live session — holds released, queued
// waiters cancelled with ErrExpired — without closing the manager. It
// returns the number of sessions revoked. This is the cluster layer's
// fencing primitive: an isolated node revokes everything it granted so
// no lease of its outlives the quarantine the survivors wait out.
func (m *Manager) RevokeAllSessions() int { return m.expireAll(true) }

// ref returns name's entry, creating it on demand, with one reference
// taken for the caller. Only acquires ref, so a ref is also an acquire
// arrival: the contention profile counts here, under the shard mutex
// already held.
func (m *Manager) ref(name string) *entry {
	si := introspect.Hash(name) & m.mask
	sh := &m.shards[si]
	sh.mu.Lock()
	e := sh.entries[name]
	if e == nil {
		e = m.newEntry(name, si)
		sh.entries[name] = e
	}
	e.refs++
	e.acquires++
	sh.mu.Unlock()
	return e
}

// newEntry builds a table entry, applying the manager's cohort policy to
// its lock: every entry shares the manager's cohort-grant sink so
// batching activity aggregates across the whole table without polling
// individual locks.
func (m *Manager) newEntry(name string, si uint32) *entry {
	m.c.entriesCreated.Add(1)
	e := &entry{name: name, shard: si}
	if m.cfg.CohortBatch > 0 {
		e.lock.SetCohort(fairlock.CohortConfig{
			Batch:  m.cfg.CohortBatch,
			Fn:     m.cfg.CohortFunc,
			Grants: &m.c.cohortGrants,
		})
	}
	return e
}

// CohortBatch returns the cohort bound B entries are configured with
// (0 = strict FIFO).
func (m *Manager) CohortBatch() int32 { return m.cfg.CohortBatch }

// deref drops one reference, stamping idleness with the caller's clock
// reading. The entry stays in the table until the sweeper finds it idle
// past IdleTTL, so a hot name is not reallocated (with its 2 KiB reader
// table) on every acquire/release cycle.
func (m *Manager) deref(e *entry, now time.Time) {
	sh := &m.shards[e.shard]
	sh.mu.Lock()
	e.refs--
	if e.refs == 0 {
		e.idleAt = now
	}
	sh.mu.Unlock()
}

// clampLease applies the configured lease bounds; the floor is the sweep
// interval so expiry is always detected within 2x the effective lease.
func (m *Manager) clampLease(lease time.Duration) time.Duration {
	if lease <= 0 {
		lease = m.cfg.DefaultLease
	}
	if lease < m.cfg.SweepInterval {
		lease = m.cfg.SweepInterval
	}
	if lease > m.cfg.MaxLease {
		lease = m.cfg.MaxLease
	}
	return lease
}

// Open registers a new session with the given lease and returns its id.
func (m *Manager) Open(lease time.Duration) (uint64, error) {
	return m.openAt(lease, time.Now())
}

// session resolves sid; nil means unknown, which live reports as expired
// (the reaper deletes expired sessions, so a stale id and an expired one
// are indistinguishable — exactly like a lapsed LRT reservation).
func (m *Manager) session(sid uint64) *Session {
	m.smu.RLock()
	s := m.sessions[sid]
	m.smu.RUnlock()
	return s
}

// KeepAlive extends sid's lease to now+lease (clamped). A session whose
// lease already lapsed is expired immediately and ErrExpired returned:
// keepalive cannot resurrect a reservation the table already broke.
func (m *Manager) KeepAlive(sid uint64, lease time.Duration) error {
	return m.keepAliveSession(m.session(sid), lease, time.Now())
}

// CloseSession gracefully ends a session: every hold is released, every
// queued waiter cancelled, in one step. Closing a session that is
// unknown or already gone is ErrExpired.
func (m *Manager) CloseSession(sid uint64) error {
	return m.closeSession(m.session(sid))
}

// closeSession is CloseSession on an already-resolved session (nil if
// unknown).
func (m *Manager) closeSession(s *Session) error {
	if s == nil || !m.expireSession(s, false) {
		return ErrExpired
	}
	return nil
}

// expireSession revokes a session: marks it closed, cancels its queued
// waiters via the revocation channel, releases all holds (unblocking
// FIFO-ordered waiters on each lock), and deletes it from the table. It
// is idempotent and reports whether this call did the revoking; expired
// says whether this was a lease expiry (reaper, lapsed lease seen by an
// op) or a graceful close.
func (m *Manager) expireSession(s *Session, expired bool) bool {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false
	}
	s.closed = true
	holds := s.holds
	s.holds = nil
	s.mu.Unlock()

	close(s.cancel)
	now := time.Now()
	for _, h := range holds {
		if h.excl {
			h.e.unlock(true)
			m.c.revokedHolds.Add(1)
			m.deref(h.e, now)
		}
		for i := 0; i < h.shared; i++ {
			h.e.unlock(false)
			m.c.revokedHolds.Add(1)
			m.deref(h.e, now)
		}
	}
	m.smu.Lock()
	delete(m.sessions, s.id)
	m.smu.Unlock()
	if expired {
		m.c.expirations.Add(1)
		m.cfg.Recorder.Record(uint32(s.id), introspect.Event{
			Kind: introspect.EvExpire, SID: s.id, Wait: int64(len(holds))})
	} else {
		m.c.sessionsClosed.Add(1)
	}
	return true
}

// live is the one lease check: it locks s and reports whether s may act
// at now. A nil (unknown) or closed session is ErrExpired; a session whose
// deadline is not after now is expired on the spot, ahead of the reaper,
// so no op of any kind succeeds on a lapsed lease. On nil return the
// caller holds s.mu.
func (m *Manager) live(s *Session, now time.Time) error {
	if s == nil {
		return ErrExpired
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrExpired
	}
	if !s.deadline.After(now) {
		s.mu.Unlock()
		m.expireSession(s, true)
		return ErrExpired
	}
	return nil
}

// grant records one granted hold of e in the given mode: the only writer
// of the hold table. h is the caller's s.holds lookup for e.name (nil if
// absent); s.mu is held.
func (s *Session) grant(h *hold, e *entry, excl bool, grantNS int64) {
	if h == nil {
		if h = s.free; h != nil {
			s.free = nil
			*h = hold{e: e}
		} else {
			h = &hold{e: e}
		}
		s.holds[e.name] = h
	}
	if excl {
		h.excl = true
	} else {
		h.shared++
	}
	h.grantNS = grantNS
}

// release is the release both entry points run: name check, lease
// check, then one hold of the given mode comes off the session (the only
// deleter from the hold table) and off the lock. It returns the entry,
// whose reference the caller still has to drop, and the hold time. name
// may alias a parse buffer: the hold lookup does not copy it.
func release[T string | []byte](m *Manager, s *Session, name T, excl bool, now time.Time) (*entry, int64, error) {
	if !validName(name) {
		return nil, 0, ErrName
	}
	if err := m.live(s, now); err != nil {
		return nil, 0, err
	}
	h := s.holds[string(name)]
	if h == nil || (excl && !h.excl) || (!excl && h.shared == 0) {
		s.mu.Unlock()
		return nil, 0, ErrNotHeld
	}
	e := h.e
	if excl {
		h.excl = false
	} else {
		h.shared--
	}
	held := now.UnixNano() - h.grantNS
	if !h.excl && h.shared == 0 {
		delete(s.holds, e.name)
		s.free = h
	}
	s.mu.Unlock()
	e.unlock(excl)
	return e, held, nil
}

// tryAcquire is the acquire both entry points run: lease check, the
// exclusive re-acquire check, the lock-free try and the hold bookkeeping
// under a single session-mutex hold, so a grant can never race the
// session's revocation. A failed try changes nothing and is ErrWouldBlock
// if the caller will queue (mayWait), else ErrTimeout.
func (m *Manager) tryAcquire(s *Session, e *entry, excl, mayWait bool, now time.Time) error {
	if err := m.live(s, now); err != nil {
		return err
	}
	h := s.holds[e.name]
	var err error
	switch {
	case excl && h != nil && h.excl:
		// Exclusive re-acquire can only deadlock against itself; reject
		// it before it parks.
		err = ErrHeld
	case e.try(excl):
		s.grant(h, e, excl, now.UnixNano())
	case mayWait:
		err = ErrWouldBlock
	default:
		err = ErrTimeout
	}
	s.mu.Unlock()
	return err
}

// waitAcquire queues on e's own FIFO after tryAcquire said ErrWouldBlock:
// up to wait (capped at the remaining lease) when wait > 0, until granted
// or the session is revoked when wait < 0. Only Manager.Acquire reaches
// it, and it is the one place an acquire blocks. It does nothing but
// block — the outcome is booked by finishWait — because its frame is
// live for the whole wait: the server starts a fresh goroutine for each
// parked acquire, and one whose call chain down to the parked select
// outgrows the initial 2 KiB stack pays a stack copy per wait (2.7 µs a
// pair on svc-handoff-write when the booking was done in this frame).
func (m *Manager) waitAcquire(s *Session, e *entry, excl bool, wait time.Duration) error {
	m.c.waiting.Add(1)
	t0 := time.Now()
	timed := wait > 0
	if timed {
		s.mu.Lock()
		wait = min(wait, s.deadline.Sub(t0))
		s.mu.Unlock()
	}
	var ok bool
	switch {
	case timed && excl:
		ok = e.lock.TryLockFor(wait)
	case timed:
		ok = e.lock.TryRLockFor(wait)
	case excl:
		ok = e.lock.LockCancel(s.cancel)
	default:
		ok = e.lock.RLockCancel(s.cancel)
	}
	waited := time.Since(t0)
	m.c.waiting.Add(-1)
	return m.finishWait(s, e, excl, timed, ok, t0, waited)
}

// finishWait books the outcome of a queued acquire: only an acquire that
// queued is attributed queue wait in the hot-lock table or recorded in
// the flight recorder (a try has no queue wait to attribute). A grant
// becomes a hold unless the session was revoked meanwhile.
func (m *Manager) finishWait(s *Session, e *entry, excl, timed, ok bool, t0 time.Time, waited time.Duration) error {
	h32 := introspect.Hash(e.name)
	ev := introspect.Event{SID: s.id, Hash: h32, Wait: int64(waited)}
	if !ok {
		ev.Kind = introspect.EvTimeout
		err := ErrTimeout
		if !timed {
			// Only revocation cancels an unbounded wait.
			ev.Kind, err = introspect.EvRevoke, ErrExpired
		}
		m.cfg.Recorder.Record(h32, ev)
		return err
	}
	m.observeWait(uint64(waited), 1)
	e.waitNS.Add(int64(waited))
	atomicMax(&e.maxWaitNS, int64(waited))
	ev.Kind = introspect.EvGrant
	m.cfg.Recorder.Record(h32, ev)
	if t := m.cfg.SlowLock; t > 0 && waited >= t {
		ev.Kind = introspect.EvSlow
		m.cfg.Recorder.Record(h32, ev)
		if fn := m.cfg.SlowLockFn; fn != nil {
			fn(e.name, s.id, excl, waited)
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || m.closed.Load() {
		// Granted after revocation (the grant/cancel race, or a timed
		// acquire that outlived the lease): hand the lock straight back.
		// The manager-wide flag closes the Close-in-progress window:
		// revoking one session's holds can grant another session's
		// parked waiter before Close reaches that session, and Close
		// promises blocked acquires a definitive ErrExpired, not a
		// grant that is about to be revoked.
		e.unlock(excl)
		return ErrExpired
	}
	s.grant(s.holds[e.name], e, excl, t0.Add(waited).UnixNano())
	return nil
}

// Acquire takes name for sid in shared or exclusive mode.
//
//	wait == 0  try: fail with ErrTimeout unless immediately available
//	wait  > 0  timed: wait in FIFO order up to wait (capped at the
//	           remaining lease), ErrTimeout on expiry
//	wait  < 0  wait until granted or the session's lease expires
//
// All three map one-to-one onto fairlock's TryLock/TryLockFor/LockCancel
// family, so service-side admission order is exactly the lock's. Every
// acquire runs tryAcquire first — the same function a BatchAcquire runs,
// with the same results — and only one that has to queue goes on to
// waitAcquire, where ExecBatch would have answered ErrWouldBlock.
func (m *Manager) Acquire(sid uint64, name string, excl bool, wait time.Duration) error {
	if !validName(name) {
		return ErrName
	}
	s := m.session(sid)
	e := m.ref(name)
	err := m.tryAcquire(s, e, excl, wait != 0, time.Now())
	if err == nil {
		m.observeWait(0, 1)
	} else if err == ErrWouldBlock {
		err = m.waitAcquire(s, e, excl, wait)
	}
	switch {
	case err == nil && excl:
		m.c.exclGrants.Add(1)
	case err == nil:
		m.c.sharedGrants.Add(1)
	default:
		m.deref(e, time.Now())
		if err == ErrTimeout {
			m.c.timeouts.Add(1)
		}
	}
	return err
}

// atomicMax raises a to at least v.
func atomicMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Release drops one shared or the exclusive hold of sid on name. A
// release from an expired or closed session — including one whose lease
// lapsed a moment ago and the reaper has not swept yet — is rejected with
// ErrExpired on either entry point: the table already revoked (or live
// revokes right here) those holds itself, and a late release must not
// unlock a grant that now belongs to someone else.
func (m *Manager) Release(sid uint64, name string, excl bool) error {
	now := time.Now()
	e, held, err := release(m, m.session(sid), name, excl, now)
	if err != nil {
		return err
	}
	m.deref(e, now)
	m.c.releases.Add(1)
	m.observeHold(held)
	return nil
}

// reaper periodically expires lapsed sessions and deletes idle entries.
func (m *Manager) reaper() {
	defer m.wg.Done()
	t := time.NewTicker(m.cfg.SweepInterval)
	defer t.Stop()
	for {
		select {
		case <-m.done:
			return
		case <-t.C:
		}
		m.sweep(time.Now())
	}
}

// sweep runs one reaper pass at the given instant.
func (m *Manager) sweep(now time.Time) {
	var victims []*Session
	m.smu.RLock()
	for _, s := range m.sessions {
		s.mu.Lock()
		if !s.closed && !s.deadline.After(now) {
			victims = append(victims, s)
		}
		s.mu.Unlock()
	}
	m.smu.RUnlock()
	for _, s := range victims {
		m.expireSession(s, true)
	}

	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		for name, e := range sh.entries {
			if e.refs == 0 && now.Sub(e.idleAt) >= m.cfg.IdleTTL {
				delete(sh.entries, name)
				m.c.entriesGCed.Add(1)
			}
		}
		sh.mu.Unlock()
	}
}

// QueueLen reports how many waiters are queued on name right now (0 for
// an absent entry). Diagnostics only.
func (m *Manager) QueueLen(name string) int {
	sh := &m.shards[introspect.Hash(name)&m.mask]
	sh.mu.Lock()
	e := sh.entries[name]
	sh.mu.Unlock()
	if e == nil {
		return 0
	}
	return e.lock.QueueLen()
}

// EntryCount returns the number of entries currently in the table,
// including idle ones the sweeper has not collected yet.
func (m *Manager) EntryCount() int {
	n := 0
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// SessionCount returns the number of live sessions.
func (m *Manager) SessionCount() int {
	m.smu.RLock()
	defer m.smu.RUnlock()
	return len(m.sessions)
}
