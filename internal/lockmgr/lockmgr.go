// Package lockmgr is a software Lock Reservation Table: a named fair
// reader-writer lock service whose table keeps the queue and whose
// releases hand the lock straight to the next requester.
//
// The paper's LRT (§3.3–3.5) is a table-managing agent: it queues
// requesters for named locks in arrival order, a release transfers the
// lock directly to the head of that queue, and a holder that disappears
// never stops forward progress. lockmgr mirrors that in software:
//
//   - named locks live in one table; an entry is the lock itself — a
//     fairq.Lock: holders and FIFO of queued acquires — created on demand
//     and collected once it has sat idle for IdleTTL;
//   - an acquire that has to wait is a node on that FIFO (waitq.go), and
//     whatever resolves it — a release, its timeout, a revocation —
//     completes the node on the spot: no goroutine or timer per waiter,
//     and admission order is fairq's: arrival order, consecutive readers
//     together, no waiter ever overtaken;
//   - every acquisition belongs to a session with a lease deadline — the
//     software analogue of the LRT's reservation: a client that crashes
//     or stalls past its lease has its holds revoked and its queued
//     acquires cancelled at the deadline, so the lock always makes forward
//     progress, and waiters behind the dead holder are granted in
//     unchanged order;
//   - keepalives extend the lease, exactly as a live LCU keeps its
//     reservation current;
//   - as the LRT breaks a reservation with a timer event on the entry
//     (§3.5), a lease's expiry, a bounded wait's timeout and the idle-entry
//     collection are items on one deadline heap behind one timer
//     (waitq.go) off one clock (clock.go): no goroutine, nothing polls.
//
// The wire, client, and server subpackages expose the manager over a
// length-prefixed binary TCP protocol (cmd/lockd, cmd/lockload).
package lockmgr

import (
	"errors"
	"sync"
	"time"

	"fairrw/internal/fairq"
	"fairrw/internal/obs"
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
	// MaxLease caps requested leases. Default 1m. A session that opens
	// with lease <= 0 gets 10s (defaultLease), capped the same way; a
	// lease not renewed expires at its deadline.
	MaxLease time.Duration
	// IdleTTL is how long an entry with no holders and no waiters
	// survives: a collection pass runs every IdleTTL while the table has
	// entries, so between IdleTTL and 2x IdleTTL. Default 1s.
	IdleTTL time.Duration
	// Recorder, when non-nil, receives grant-path flight records on
	// obs.LRTNode(0): the resolution of every queued acquire (KLRTGrant,
	// KTimeout, KCancel, with measured wait) and lease expirations (KExpire).
	// The try path is not recorded, grant or failed try alike — neither
	// has queue wait, which is the quantity the flight recorder
	// attributes — so the manager fast path never touches it.
	Recorder *obs.Recorder
	// SlowLock is the slow-acquire threshold: a grant whose queue wait
	// reaches it is reported to SlowLockFn (and recorded as obs.KSlow).
	// Zero disables; only contended acquires ever check it.
	SlowLock time.Duration
	// SlowLockFn receives slow acquires (cmd/lockd logs them as
	// structured one-liners). Called from the goroutine whose release
	// made the grant, with Manager.mu free; must not block.
	SlowLockFn func(name string, sid uint64, excl bool, wait time.Duration)
}

// defaultLease is the lease of a session opened with lease <= 0.
const defaultLease = 10 * time.Second

func (c Config) withDefaults() Config {
	if c.MaxLease <= 0 {
		c.MaxLease = time.Minute
	}
	if c.IdleTTL <= 0 {
		c.IdleTTL = time.Second
	}
	return c
}

// entry is one named lock in the table: the lock state and its contention
// profile (Manager.HotLocks), all guarded by Manager.mu. An entry nobody
// holds or waits for is idle, and collectIdle deletes it once idle for
// IdleTTL — so a hot name is not reallocated on every acquire/release
// cycle and a profile lives as long as its lock.
type entry struct {
	name   string
	hash   uint32 // obs.Hash(name), as in flight events
	idleAt time.Time

	lk fairq.Lock[queued] // holders and queued acquires, in arrival order

	acquires  uint64 // acquire arrivals: executed to a result, or queued
	waitNS    int64  // queue wait summed over contended grants
	maxWaitNS int64
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

// Session is one client's registration: a lease deadline, the holds to
// release and the queued acquires to cancel when the session dies.
type Session struct {
	id       uint64
	deadline time.Time
	lease    timed // deadline's item on the heap; may lag a deadline moved back
	closed   bool
	holds    map[string]*hold
	free     *hold
	waits    *waitNode // queued acquires, linked through snext/sprev
}

// Manager is the lease-based lock service. Create one with New; all
// methods are safe for concurrent use. Like the LRT, it is one table agent
// that takes requests one at a time: one mutex, mu, guards the table, the
// sessions and the timer, and every op — a whole ExecBatch, a timer fire —
// runs in one hold of it. Nothing outside the manager runs under mu: the
// outcomes an op completes are collected while it is held and settled
// after it is released, so Waiter.Complete (which may run a server loop
// that calls ExecBatch), SlowLockFn and the completions' flight events are
// all called with mu free. The counters and the wait and hold histograms
// are booked under mu too, in the hold that makes each event, so a Stats
// snapshot is one consistent cut.
type Manager struct {
	cfg Config
	clk clock

	mu       sync.Mutex
	entries  map[string]*entry
	free     *waitNode // recycled wait nodes
	sessions map[uint64]*Session
	nextSID  uint64
	closed   bool

	// The one timer, armed for the earliest deadline on the heap (waitq.go).
	deadlines deadlineHeap
	gc        timed // the collection pass: on the heap while the table has entries
	timer     timer
	timerAt   time.Time // when timer fires next; zero = not armed

	c     Counters
	wait  stats.Histogram // grant wait, nanoseconds
	holdH stats.Histogram // hold time (grant to release), nanoseconds
}

// New creates a Manager. It starts no goroutine: the manager's one timer
// appears with the first session. Callers Close it to stop that timer.
func New(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	return &Manager{
		cfg:      cfg,
		clk:      realClock,
		entries:  make(map[string]*entry),
		sessions: make(map[uint64]*Session),
	}
}

// Close expires every session (releasing holds, cancelling queued
// acquires with ErrExpired) and stops the timer.
func (m *Manager) Close() { m.expireAll(false, true) }

// expireAll expires every live session and returns how many there were;
// closing closes the manager in the same hold, first.
func (m *Manager) expireAll(expired, closing bool) (n int) {
	var done []Completion
	now := m.clk.now()
	m.mu.Lock()
	if closing {
		m.closed = true
		if m.timer != nil {
			m.timer.Stop()
		}
	}
	for _, s := range m.sessions {
		if m.expireSession(s, expired, now, &done) {
			n++
		}
	}
	m.unlock(done)
	return n
}

// unlock releases mu and then settles what the hold completed.
func (m *Manager) unlock(done []Completion) {
	m.mu.Unlock()
	m.settle(done, false)
}

// MaxLease reports the effective cap on granted leases — every lease
// this manager hands out expires at most MaxLease past its last
// renewal. The cluster layer quarantines a dead member's names this long.
func (m *Manager) MaxLease() time.Duration { return m.cfg.MaxLease }

// RevokeAllSessions expires every live session — holds released, queued
// acquires cancelled with ErrExpired — without closing the manager. It
// returns the number of sessions revoked. This is the cluster layer's
// fencing primitive: an isolated node revokes everything it granted so
// no lease of its outlives the quarantine the survivors wait out.
func (m *Manager) RevokeAllSessions() int { return m.expireAll(true, false) }

// clampLease applies the default lease and the configured cap.
func (m *Manager) clampLease(lease time.Duration) time.Duration {
	if lease <= 0 {
		lease = defaultLease
	}
	return min(lease, m.cfg.MaxLease)
}

// Open registers a new session with the given lease and returns its id.
func (m *Manager) Open(lease time.Duration) (uint64, error) {
	now := m.clk.now()
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.openAt(lease, now)
}

// KeepAlive extends sid's lease to now+lease (clamped). A session whose
// lease already lapsed is expired immediately and ErrExpired returned:
// keepalive cannot resurrect a reservation the table already broke.
func (m *Manager) KeepAlive(sid uint64, lease time.Duration) error {
	var done []Completion
	now := m.clk.now()
	m.mu.Lock()
	err := m.keepAliveSession(m.sessions[sid], lease, now, &done)
	m.unlock(done)
	return err
}

// CloseSession gracefully ends a session: every hold is released, every
// queued acquire cancelled, in one step. Closing a session that is
// unknown or already gone is ErrExpired.
func (m *Manager) CloseSession(sid uint64) error {
	var done []Completion
	now := m.clk.now()
	m.mu.Lock()
	err := m.closeSession(m.sessions[sid], now, &done)
	m.unlock(done)
	return err
}

// closeSession is CloseSession on an already-resolved session (nil if
// unknown — expired sessions are deleted, so a stale id and an expired one
// are indistinguishable, exactly like a lapsed LRT reservation) with the
// caller's clock reading.
func (m *Manager) closeSession(s *Session, now time.Time, done *[]Completion) error {
	if s == nil || !m.expireSession(s, false, now, done) {
		return ErrExpired
	}
	return nil
}

// expireSession revokes a session: marks it closed, cancels its queued
// acquires, releases all holds (granting the waiters behind each in
// unchanged order), and deletes it from the table. It is idempotent and
// reports whether this call did the revoking; expired says whether this
// was a lease expiry (the timer's, or a lapsed lease seen by an op) or a
// graceful close. mu is held.
func (m *Manager) expireSession(s *Session, expired bool, now time.Time, done *[]Completion) bool {
	if s.closed {
		return false
	}
	s.closed = true // from here on no acquire of s queues or is granted
	holds := s.holds
	s.holds = nil

	m.unschedule(&s.lease)
	m.cancelWaits(s, nil, now, done)
	for _, h := range holds {
		if h.excl {
			h.e.lk.Drop(true)
			m.c.RevokedHolds++
		}
		for range h.shared {
			h.e.lk.Drop(false)
		}
		m.c.RevokedHolds += uint64(h.shared)
		m.admit(h.e, now, done)
	}
	delete(m.sessions, s.id)
	if expired {
		m.c.LeaseExpirations++
		m.cfg.Recorder.Record(uint32(s.id), obs.Record{
			At: uint64(now.UnixNano()), Tid: s.id, Aux: uint64(len(holds)), Node: obs.LRTNode(0), Kind: obs.KExpire})
	} else {
		m.c.SessionsClosed++
	}
	return true
}

// live is the one lease check: it reports whether s may act at now. A nil
// (unknown, so closed or expired) session is ErrExpired, and so is one
// whose deadline is not after now, so no op of any kind succeeds on a
// lapsed lease: live expires that session on the spot, ahead of a late
// timer. mu is held.
func (m *Manager) live(s *Session, now time.Time, done *[]Completion) error {
	if s == nil {
		return ErrExpired
	}
	if !s.deadline.After(now) {
		m.expireSession(s, true, now, done)
		return ErrExpired
	}
	return nil
}

// grant records one granted hold of e in the given mode: the only writer
// of the hold table. h is the caller's s.holds lookup for e.name (nil if
// absent); the lock itself was taken by the caller. mu is held.
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
// deleter from the hold table) and off the lock, and whoever that lets in
// is granted on the spot — their completions land in done, so a queued
// acquire is answered in its releaser's round. It books the release and
// its hold time. name may alias a parse buffer: the hold lookup does not
// copy it. mu is held.
func release[T string | []byte](m *Manager, s *Session, name T, excl bool, now time.Time, done *[]Completion) error {
	if !validName(name) {
		return ErrName
	}
	if err := m.live(s, now, done); err != nil {
		return err
	}
	h := s.holds[string(name)]
	if h == nil || (excl && !h.excl) || (!excl && h.shared == 0) {
		return ErrNotHeld
	}
	e := h.e
	if excl {
		h.excl = false
	} else {
		h.shared--
	}
	e.lk.Drop(excl)
	m.c.Releases++
	m.holdH.Add(uint64(max(now.UnixNano()-h.grantNS, 0)))
	if !h.excl && h.shared == 0 {
		delete(s.holds, e.name)
		s.free = h
	}
	m.admit(e, now, done)
	return nil
}

// acquire is the acquire both entry points run, under mu, so nothing in
// it can race the session's revocation or another arrival. A lock that is
// free for the mode with nobody queued is granted, and booked with no
// wait. Otherwise wait == 0 is ErrTimeout, booked as a timeout, and wait
// != 0 queues the acquire for w and answers ErrWouldBlock — unless w is
// nil, in which case nothing changed. Only an acquire executed to a result
// or queued counts as an arrival.
func acquire[T string | []byte](m *Manager, s *Session, name T, excl bool, wait time.Duration, w Waiter, tag int32, now time.Time, done *[]Completion) error {
	if !validName(name) {
		return ErrName
	}
	e := m.entries[string(name)] // alloc-free lookup
	if e == nil {
		e = &entry{name: string(name), hash: obs.Hash(name)} // the one name copy
		m.entries[e.name] = e
		m.c.EntriesCreated++
		m.schedule(&m.gc, now.Add(m.cfg.IdleTTL)) // a no-op while a pass is pending
	}
	err := m.live(s, now, done)
	if err == nil {
		h := s.holds[e.name]
		switch {
		case excl && h != nil && h.excl:
			// Exclusive re-acquire can only deadlock against itself; reject
			// it before it queues.
			err = ErrHeld
		case e.lk.TryAcquire(excl):
			s.grant(h, e, excl, now.UnixNano())
			m.granted(excl, 0)
		case wait == 0:
			err = ErrTimeout
			m.c.Timeouts++
		default:
			err = ErrWouldBlock
			if w != nil {
				m.enqueue(queued{e: e, s: s, w: w, tag: tag, t0: now}, excl, wait)
			}
		}
	}
	if err != ErrWouldBlock || w != nil {
		e.acquires++
	}
	if e.lk.Idle() {
		e.idleAt = now
	}
	return err
}

// Acquire takes name for sid in shared or exclusive mode.
//
//	wait == 0  try: fail with ErrTimeout unless immediately available
//	wait  > 0  timed: wait in FIFO order up to wait (capped at the
//	           remaining lease), ErrTimeout on expiry
//	wait  < 0  wait until granted or the session's lease expires
//
// Every acquire runs the function a BatchAcquire runs, with the same
// results; one that has to wait queues the same node a batch acquire
// queues, completed through a channel this call blocks on — made only
// then, so an uncontended acquire allocates nothing.
func (m *Manager) Acquire(sid uint64, name string, excl bool, wait time.Duration) error {
	var done []Completion
	now := m.clk.now()
	m.mu.Lock()
	s := m.sessions[sid]
	err := acquire(m, s, name, excl, wait, nil, 0, now, &done)
	if err == ErrWouldBlock { // nothing changed, so the same call with a Waiter queues
		ch := make(chanWaiter, 1)
		acquire(m, s, name, excl, wait, ch, 0, now, &done)
		m.mu.Unlock()
		return <-ch // complete, wherever the wait ends, books the outcome
	}
	m.unlock(done)
	return err
}

// Release drops one shared or the exclusive hold of sid on name. A
// release from an expired or closed session — including one whose lease
// lapsed a moment ago and the timer has not run yet — is rejected with
// ErrExpired on either entry point: the table already revoked (or live
// revokes right here) those holds itself, and a late release must not
// unlock a grant that now belongs to someone else.
func (m *Manager) Release(sid uint64, name string, excl bool) error {
	var done []Completion
	now := m.clk.now()
	m.mu.Lock()
	err := release(m, m.sessions[sid], name, excl, now, &done)
	m.unlock(done)
	return err
}

// collectIdle deletes the entries that have been idle for IdleTTL at now
// and returns how many entries are left. mu is held, for the whole walk.
func (m *Manager) collectIdle(now time.Time) int {
	for name, e := range m.entries {
		if e.lk.Idle() && now.Sub(e.idleAt) >= m.cfg.IdleTTL {
			delete(m.entries, name)
			m.c.EntriesGCed++
		}
	}
	return len(m.entries)
}

// QueueLen reports how many acquires are queued on name right now (0 for
// an absent entry). Diagnostics only.
func (m *Manager) QueueLen(name string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e := m.entries[name]; e != nil {
		return e.lk.Len()
	}
	return 0
}

// SessionCount returns the number of live sessions.
func (m *Manager) SessionCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sessions)
}
