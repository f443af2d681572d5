package fairlock

import (
	"sync"
	"time"
)

// This file preserves the original, deliberately simple fairlock
// implementation — one sync.Mutex around explicit state, a slice queue,
// and a channel per waiter — as an executable reference model. The
// rewritten locks (core.go, fairlock.go, mutex.go, bravo.go) must be
// behaviourally identical to it, Mutex to its write mode: the
// differential tests drive both with the same arrival scripts and require
// the same admission order, reader batching, trylock outcomes, and grant
// counts, and the benchmark matrix reports old-vs-new side by side.

// refWaiter is one queued acquisition in the reference model.
type refWaiter struct {
	write bool
	ready chan struct{} // closed when the lock is granted
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
}

// admit grants strictly FIFO: the queue head — and, for a reader head,
// every consecutive reader behind it. Callers hold mu.
func (m *RefRWMutex) admit() {
	for len(m.queue) > 0 {
		h := m.queue[0]
		if h.write {
			if m.writer || m.readers > 0 {
				return
			}
			m.writer = true
			m.grantsW++
		} else {
			if m.writer {
				return
			}
			m.readers++
			m.grantsR++
		}
		m.queue = m.queue[1:]
		close(h.ready)
		if h.write {
			return
		}
	}
}

// enqueue appends a waiter unless the lock is immediately available (no
// queue and no conflicting holder). It returns nil on immediate grant.
func (m *RefRWMutex) enqueue(write bool) *refWaiter {
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
	w := &refWaiter{write: write, ready: make(chan struct{})}
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
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.writer {
		panic("fairlock: Unlock of non-write-locked RefRWMutex")
	}
	m.writer = false
	m.admit()
}

// RUnlock releases read mode. It panics if the lock is not read-held.
func (m *RefRWMutex) RUnlock() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.readers == 0 {
		panic("fairlock: RUnlock of non-read-locked RefRWMutex")
	}
	m.readers--
	if m.readers == 0 {
		m.admit()
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
func (m *RefRWMutex) TryLockFor(d time.Duration) bool { return m.bounded(true, time.Now().Add(d), nil) }

// TryRLockFor attempts read mode, waiting in queue up to d.
func (m *RefRWMutex) TryRLockFor(d time.Duration) bool {
	return m.bounded(false, time.Now().Add(d), nil)
}

// LockCancel acquires write mode, abandoning the attempt when cancel is
// closed. It reports whether the lock was acquired.
func (m *RefRWMutex) LockCancel(cancel <-chan struct{}) bool {
	return m.bounded(true, time.Time{}, cancel)
}

// RLockCancel acquires read mode, abandoning the attempt when cancel is
// closed. It reports whether the lock was acquired.
func (m *RefRWMutex) RLockCancel(cancel <-chan struct{}) bool {
	return m.bounded(false, time.Time{}, cancel)
}

// bounded waits in queue until granted, the deadline passes (zero: never)
// or cancel is closed (nil: never). A waiter that gives up leaves the
// queue; one whose grant won the race holds the lock.
func (m *RefRWMutex) bounded(write bool, deadline time.Time, cancel <-chan struct{}) bool {
	w := m.enqueue(write)
	if w == nil {
		return true
	}
	var timeout <-chan time.Time
	if !deadline.IsZero() {
		timer := time.NewTimer(time.Until(deadline))
		defer timer.Stop()
		timeout = timer.C
	}
	select {
	case <-w.ready:
		return true
	case <-timeout:
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
