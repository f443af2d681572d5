package fairlock

import (
	"sync"
	"time"

	"fairrw/internal/fairq"
)

// This file keeps the simplest lock on the admission model: one
// sync.Mutex around a fairq.Lock, and a channel per waiter. The differential tests
// hold it, RWMutex and Mutex (as its write mode) to the same trylock
// outcomes, grant counts and queue lengths, and all three to the
// admission order fairq's model gives; the benchmark matrix reports it
// beside RWMutex.

// refWaiter is one queued acquisition: its channel is closed on grant.
type refWaiter = fairq.Node[chan struct{}]

// RefRWMutex is the reference fair FIFO reader-writer lock. It has the
// same API and fairness contract as RWMutex but takes a global mutex on
// every operation and allocates per contended acquire. Use RWMutex; this
// type exists for differential testing and benchmarking.
type RefRWMutex struct {
	mu sync.Mutex
	lk fairq.Lock[chan struct{}]

	grantsR, grantsW uint64
}

// count books one grant. Callers hold mu.
func (m *RefRWMutex) count(write bool) {
	if write {
		m.grantsW++
	} else {
		m.grantsR++
	}
}

// grant is the admission pass's grant: the head leaves the queue holding
// the lock, and its waiter is woken. Callers hold mu.
func (m *RefRWMutex) grant(h *refWaiter) {
	m.lk.Remove(h)
	m.lk.Take(h.Write)
	m.count(h.Write)
	close(h.V)
}

// try grants the mode at once if nobody is queued and it fits the holders.
func (m *RefRWMutex) try(write bool) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	ok := m.lk.TryAcquire(write)
	if ok {
		m.count(write)
	}
	return ok
}

// release drops one hold of the mode, panicking with notHeld if the lock
// is not held in it, and admits whoever that lets in.
func (m *RefRWMutex) release(write bool, notHeld string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.lk.Drop(write) {
		panic(notHeld)
	}
	m.lk.Admit(m.grant)
}

// Lock acquires the lock in write (exclusive) mode.
func (m *RefRWMutex) Lock() { m.bounded(true, time.Time{}) }

// RLock acquires the lock in read (shared) mode.
func (m *RefRWMutex) RLock() { m.bounded(false, time.Time{}) }

// Unlock releases write mode. It panics if the lock is not write-held.
func (m *RefRWMutex) Unlock() { m.release(true, "fairlock: Unlock of non-write-locked RefRWMutex") }

// RUnlock releases read mode. It panics if the lock is not read-held.
func (m *RefRWMutex) RUnlock() { m.release(false, "fairlock: RUnlock of non-read-locked RefRWMutex") }

// TryLock attempts write mode without waiting.
func (m *RefRWMutex) TryLock() bool { return m.try(true) }

// TryRLock attempts read mode without waiting.
func (m *RefRWMutex) TryRLock() bool { return m.try(false) }

// TryLockFor attempts write mode, waiting in queue up to d.
func (m *RefRWMutex) TryLockFor(d time.Duration) bool { return m.bounded(true, time.Now().Add(d)) }

// TryRLockFor attempts read mode, waiting in queue up to d.
func (m *RefRWMutex) TryRLockFor(d time.Duration) bool { return m.bounded(false, time.Now().Add(d)) }

// bounded is the one acquire: an immediate grant, else a place in the
// queue waited on until granted or until the deadline passes (zero:
// never). A waiter that times out leaves the queue and lets in whoever it
// was blocking; one whose grant won the race holds the lock.
func (m *RefRWMutex) bounded(write bool, deadline time.Time) bool {
	if m.try(write) {
		return true
	}
	w := &refWaiter{Write: write, V: make(chan struct{})}
	m.mu.Lock()
	m.lk.Enqueue(w)
	m.lk.Admit(m.grant) // granted here if the lock came free since try
	m.mu.Unlock()
	var timeout <-chan time.Time
	if !deadline.IsZero() {
		timer := time.NewTimer(time.Until(deadline))
		defer timer.Stop()
		timeout = timer.C
	}
	select {
	case <-w.V:
		return true
	case <-timeout:
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.lk.Queued(w) {
		return true // the grant won the race; we hold the lock
	}
	m.lk.Remove(w)
	m.lk.Admit(m.grant)
	return false
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
	return m.lk.Len()
}
