package fairlock

import (
	"sync"
	"sync/atomic"
	"time"
)

// This file preserves the original, deliberately simple fairlock
// implementation — one sync.Mutex around explicit state, a slice queue,
// and a channel per waiter — as an executable reference model. The
// rewritten locks (fairlock.go, mutex.go, bravo.go) must be
// behaviourally identical to it: the differential tests drive both with
// the same arrival scripts and require the same admission order,
// reader batching, trylock outcomes, and grant counts, and the benchmark
// matrix reports old-vs-new side by side.

// refWaiter is one queued acquisition in the reference model.
type refWaiter struct {
	write  bool
	cohort uint32        // locality tag assigned at enqueue (cohort mode)
	skips  int32         // grants that have bypassed this waiter
	ready  chan struct{} // closed when the lock is granted
}

// RefRWMutex is the reference fair FIFO reader-writer lock. It has the
// same API and fairness contract as RWMutex but takes a global mutex on
// every operation and allocates per contended acquire. Use RWMutex; this
// type exists for differential testing and benchmarking.
type RefRWMutex struct {
	mu      sync.Mutex
	readers int  // active readers
	writer  bool // active writer
	queue   []*refWaiter

	grantsR, grantsW uint64
	cohortGrants     uint64 // out-of-FIFO grants to a cohort-mate; under mu

	cohort atomic.Pointer[cohortState] // cohort batching config (nil = off)
}

// SetCohort mirrors RWMutex.SetCohort on the reference model, so the
// differential tests can pin the cohort-batching policy — including the
// B-bounded bypass rule — against this oracle.
func (m *RefRWMutex) SetCohort(cfg CohortConfig) {
	if cfg.Batch <= 0 {
		m.cohort.Store(nil)
		return
	}
	fn := cfg.Fn
	if fn == nil {
		fn = slotIndex
	}
	m.cohort.Store(&cohortState{batch: cfg.Batch, fn: fn, sink: cfg.Grants})
}

// CohortGrants mirrors RWMutex.CohortGrants.
func (m *RefRWMutex) CohortGrants() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cohortGrants
}

// releaseCohort derives the releasing holder's cohort tag before mu is
// taken (a user CohortFunc must never run under the lock's own mutex).
func (m *RefRWMutex) releaseCohort() uint32 {
	if c := m.cohort.Load(); c != nil {
		return c.fn()
	}
	return noCohort
}

// feasible mirrors RWMutex.feasible on the reference state. Callers hold mu.
func (m *RefRWMutex) feasible(w *refWaiter) bool {
	if w.write {
		return m.readers == 0 && !m.writer
	}
	return !m.writer
}

// cohortCandidate mirrors RWMutex.cohortCandidate: the queue index to
// grant for releaser cohort rc — 0 for strict FIFO, a bypass otherwise.
// Callers hold mu.
func (m *RefRWMutex) cohortCandidate(c *cohortState, rc uint32) int {
	for i, w := range m.queue {
		if i >= cohortScanWindow {
			break
		}
		if w.cohort == rc && m.feasible(w) {
			return i
		}
		if w.skips >= c.batch {
			break
		}
	}
	return 0
}

// admit grants strictly FIFO: the queue head — and, for a reader head,
// every consecutive reader behind it. Callers hold mu.
func (m *RefRWMutex) admit() { m.admitWith(noCohort) }

// admitWith mirrors RWMutex.admitWith: hand-offs may batch grants within
// the releaser's cohort, charging one skip to every overtaken waiter and
// never overtaking a waiter more than B times. Callers hold mu.
func (m *RefRWMutex) admitWith(rc uint32) {
	c := m.cohort.Load()
	if c == nil {
		rc = noCohort
	}
	for len(m.queue) > 0 {
		ci := 0
		if rc != noCohort {
			ci = m.cohortCandidate(c, rc)
		}
		h := m.queue[ci]
		if !m.feasible(h) {
			return
		}
		if ci > 0 {
			for _, w := range m.queue[:ci] {
				w.skips++
			}
			m.cohortGrants++
			if c.sink != nil {
				c.sink.Add(1)
			}
		}
		if h.write {
			m.writer = true
			m.grantsW++
		} else {
			m.readers++
			m.grantsR++
		}
		m.queue = append(m.queue[:ci], m.queue[ci+1:]...)
		close(h.ready)
		if h.write {
			return
		}
	}
}

// enqueue appends a waiter unless the lock is immediately available (no
// queue and no conflicting holder). It returns nil on immediate grant.
func (m *RefRWMutex) enqueue(write bool) *refWaiter {
	var cohort uint32
	if c := m.cohort.Load(); c != nil {
		cohort = c.fn()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.queue) == 0 && !m.writer && (!write || m.readers == 0) {
		if write {
			m.writer = true
			m.grantsW++
		} else {
			m.readers++
			m.grantsR++
		}
		return nil
	}
	w := &refWaiter{write: write, cohort: cohort, ready: make(chan struct{})}
	m.queue = append(m.queue, w)
	return w
}

// Lock acquires the lock in write (exclusive) mode.
func (m *RefRWMutex) Lock() {
	if w := m.enqueue(true); w != nil {
		<-w.ready
	}
}

// RLock acquires the lock in read (shared) mode.
func (m *RefRWMutex) RLock() {
	if w := m.enqueue(false); w != nil {
		<-w.ready
	}
}

// Unlock releases write mode. It panics if the lock is not write-held.
func (m *RefRWMutex) Unlock() {
	rc := m.releaseCohort()
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.writer {
		panic("fairlock: Unlock of non-write-locked RefRWMutex")
	}
	m.writer = false
	m.admitWith(rc)
}

// RUnlock releases read mode. It panics if the lock is not read-held.
func (m *RefRWMutex) RUnlock() {
	rc := m.releaseCohort()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.readers == 0 {
		panic("fairlock: RUnlock of non-read-locked RefRWMutex")
	}
	m.readers--
	if m.readers == 0 {
		m.admitWith(rc)
	}
}

// TryLock attempts write mode without waiting.
func (m *RefRWMutex) TryLock() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.queue) == 0 && !m.writer && m.readers == 0 {
		m.writer = true
		m.grantsW++
		return true
	}
	return false
}

// TryRLock attempts read mode without waiting.
func (m *RefRWMutex) TryRLock() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.queue) == 0 && !m.writer {
		m.readers++
		m.grantsR++
		return true
	}
	return false
}

// TryLockFor attempts write mode, waiting in queue up to d.
func (m *RefRWMutex) TryLockFor(d time.Duration) bool { return m.tryFor(true, d) }

// TryRLockFor attempts read mode, waiting in queue up to d.
func (m *RefRWMutex) TryRLockFor(d time.Duration) bool { return m.tryFor(false, d) }

func (m *RefRWMutex) tryFor(write bool, d time.Duration) bool {
	w := m.enqueue(write)
	if w == nil {
		return true
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-w.ready:
		return true
	case <-timer.C:
	}
	m.mu.Lock()
	for i, q := range m.queue {
		if q == w {
			m.queue = append(m.queue[:i], m.queue[i+1:]...)
			m.admit()
			m.mu.Unlock()
			return false
		}
	}
	m.mu.Unlock()
	<-w.ready // the grant won the race; we hold the lock
	return true
}

// LockCancel acquires write mode, abandoning the attempt when cancel is
// closed. It reports whether the lock was acquired.
func (m *RefRWMutex) LockCancel(cancel <-chan struct{}) bool { return m.cancelFor(true, cancel) }

// RLockCancel acquires read mode, abandoning the attempt when cancel is
// closed. It reports whether the lock was acquired.
func (m *RefRWMutex) RLockCancel(cancel <-chan struct{}) bool { return m.cancelFor(false, cancel) }

func (m *RefRWMutex) cancelFor(write bool, cancel <-chan struct{}) bool {
	w := m.enqueue(write)
	if w == nil {
		return true
	}
	select {
	case <-w.ready:
		return true
	case <-cancel:
	}
	m.mu.Lock()
	for i, q := range m.queue {
		if q == w {
			m.queue = append(m.queue[:i], m.queue[i+1:]...)
			m.admit()
			m.mu.Unlock()
			return false
		}
	}
	m.mu.Unlock()
	<-w.ready // the grant won the race; we hold the lock
	return true
}

// Stats returns the cumulative number of read and write grants.
func (m *RefRWMutex) Stats() (readGrants, writeGrants uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.grantsR, m.grantsW
}

// QueueLen returns the current number of queued waiters (diagnostics).
func (m *RefRWMutex) QueueLen() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.queue)
}

// RefMutex is the reference FIFO-fair mutex (see RefRWMutex).
type RefMutex struct {
	mu     sync.Mutex
	held   bool
	queue  []chan struct{}
	grants uint64
}

// Lock acquires the mutex, queueing FIFO behind earlier waiters.
func (m *RefMutex) Lock() {
	m.mu.Lock()
	if !m.held && len(m.queue) == 0 {
		m.held = true
		m.grants++
		m.mu.Unlock()
		return
	}
	ch := make(chan struct{})
	m.queue = append(m.queue, ch)
	m.mu.Unlock()
	<-ch
}

// Unlock releases the mutex, handing it directly to the queue head.
func (m *RefMutex) Unlock() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.held {
		panic("fairlock: Unlock of unlocked RefMutex")
	}
	if len(m.queue) > 0 {
		ch := m.queue[0]
		m.queue = m.queue[1:]
		m.grants++
		close(ch) // ownership transfers directly; held stays true
		return
	}
	m.held = false
}

// TryLock acquires the mutex only if it is free and nobody waits.
func (m *RefMutex) TryLock() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.held || len(m.queue) > 0 {
		return false
	}
	m.held = true
	m.grants++
	return true
}

// TryLockFor acquires the mutex, waiting in queue at most d.
func (m *RefMutex) TryLockFor(d time.Duration) bool {
	m.mu.Lock()
	if !m.held && len(m.queue) == 0 {
		m.held = true
		m.grants++
		m.mu.Unlock()
		return true
	}
	ch := make(chan struct{})
	m.queue = append(m.queue, ch)
	m.mu.Unlock()

	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ch:
		return true
	case <-timer.C:
	}
	m.mu.Lock()
	for i, q := range m.queue {
		if q == ch {
			m.queue = append(m.queue[:i], m.queue[i+1:]...)
			m.mu.Unlock()
			return false
		}
	}
	m.mu.Unlock()
	<-ch // the grant raced the timeout: we own the lock
	return true
}

// Grants returns the cumulative number of acquisitions (diagnostics).
func (m *RefMutex) Grants() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.grants
}
