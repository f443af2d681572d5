// Package fairlock provides task-fair (FIFO) reader-writer locks for Go,
// mirroring the semantics the paper's Lock Control Unit implements in
// hardware: strict arrival-order admission with consecutive readers
// admitted together, writer and reader starvation freedom, and trylock /
// timed acquisition (the paper's trylock support, Figure 2).
//
// Unlike sync.RWMutex — whose writers block new readers but which makes no
// ordering guarantee among writers — fairlock.RWMutex guarantees that
// every waiter is admitted in arrival order: a continuous stream of
// readers cannot starve a writer, and a stream of writers cannot starve a
// reader beyond the writers already queued ahead of it.
//
// Both locks run on one queue core (core.go), the way the LCU runs one
// queue discipline for every lock mode. The core is a single atomic state
// word (readers | writer | bias | queue length) whose CAS gives every
// uncontended acquire an allocation-free fast path, and one slow path
// that every acquire which can block takes once that CAS fails: a short
// yielding spin that retries the CAS, never past a queued waiter; then a
// place in a pooled FIFO of fairq nodes (waiter.go) with one admission
// rule; then a wait there, bounded for the timed acquires (a trylock is
// the same request with a deadline) and released by one hand-off. Mutex
// is the core in write mode.
// RWMutex adds a BRAVO-style distributed reader table (bravo.go) that lets
// concurrent readers scale across cores while no writer holds or waits —
// the slot path is open exactly when TryRLock would succeed, so fairness
// is unchanged.
//
// The admission rule is internal/fairq's model; RefRWMutex (reference.go)
// is a single-mutex lock on that model, and the differential tests check
// that RWMutex, Mutex in write mode and RefRWMutex admit as it does.
package fairlock

import (
	"sync"
	"time"
)

// RWMutex is a fair FIFO reader-writer lock. The zero value is ready to
// use. An RWMutex must not be copied after first use.
type RWMutex struct {
	core
	slots [numSlots]rslot // BRAVO distributed reader indicator
}

// Lock acquires the lock in write (exclusive) mode.
func (m *RWMutex) Lock() {
	if m.state.CompareAndSwap(0, writerBit) {
		m.grantsW.Add(1)
	} else {
		m.slow(true, time.Time{})
	}
	if m.everBiased.Load() {
		m.drainSlots(time.Time{})
	}
}

// RLock acquires the lock in read (shared) mode. The biased slot publish
// is laid out inline so the steady-state read path (bias on) runs without
// an extra call frame; everything else defers to rlockFast.
func (m *RWMutex) RLock() {
	if m.state.Load()&biasBit != 0 {
		sl := &m.slots[slotIndex()]
		sl.word.Add(slotGrant + 1)
		if m.state.Load()&biasBit != 0 {
			return
		}
		m.retract(sl)
	}
	if !m.rlockFast() {
		m.slow(false, time.Time{})
	}
}

// rlockFast is the uncontended read path: the BRAVO slot publish when the
// lock is read-biased, otherwise a CAS on the central count when no writer
// holds or waits. It succeeds exactly when TryRLock would.
func (m *RWMutex) rlockFast() bool {
	if m.state.Load()&biasBit != 0 {
		sl := &m.slots[slotIndex()]
		// One RMW publishes the read credit and counts the grant.
		sl.word.Add(slotGrant + 1)
		if m.state.Load()&biasBit != 0 {
			// Bias still on after publishing: any revoking writer will see
			// our slot and drain it before entering its critical section.
			return true
		}
		// Revoked between publish and recheck: the writer may have scanned
		// past our slot already. Retract and go through the central path.
		m.retract(sl)
	}
	return m.rlockCentral()
}

// Unlock releases write mode. It panics if the lock is not write-held.
func (m *RWMutex) Unlock() { m.unlock() }

// RUnlock releases read mode. It panics if the lock is not read-held.
// While the lock is read-biased the release is a single blind decrement
// of the hashed slot's packed word: if the reader half goes negative the
// credit was not here (P migration, cross-goroutine unlock, or acquired
// before the bias came on) — undo the borrow and fall back to the full
// credit hunt.
func (m *RWMutex) RUnlock() {
	sl := &m.slots[slotIndex()]
	if m.state.Load()&biasBit != 0 {
		n := sl.word.Add(^uint64(0))
		if slotReaders(n) >= 0 {
			return
		}
		sl.word.Add(1)
		creditHunts.Add(1)
	}
	m.releaseReadCredit(sl, true)
}

// tryLockDrain bounds how long TryLock waits on slot credits that appear
// between its table scan and its CAS. A reader racing the scan either
// retracts (it saw the bias off — gone within a few scheduling quanta) or
// committed, in which case the grant is rolled back and TryLock fails
// rather than wait out a reader critical section.
const tryLockDrain = 100 * time.Microsecond

// slotsEmpty reports whether no fast-path reader is published in the
// BRAVO table at the instant of the scan.
func (m *RWMutex) slotsEmpty() bool {
	for i := range m.slots {
		if slotReaders(m.slots[i].word.Load()) != 0 {
			return false
		}
	}
	return true
}

// TryLock attempts write mode without waiting. Consistent with fairness,
// it fails whenever anyone holds the lock or waits for it — including
// fast-path readers published in the BRAVO table. Such readers can be
// live even when the state word is zero: a bounded write that rolled back
// mid-drain (finishWrite) leaves the bias off with slot credits still
// outstanding, so both idle states must scan the table.
func (m *RWMutex) TryLock() bool {
	s := m.state.Load()
	if s != 0 && s != biasBit {
		return false
	}
	if m.everBiased.Load() && !m.slotsEmpty() {
		// Hidden slot readers hold the lock; granting would either block
		// on their critical sections or break mutual exclusion.
		return false
	}
	if !m.state.CompareAndSwap(s, writerBit) {
		return false
	}
	m.grantsW.Add(1)
	if !m.everBiased.Load() {
		return true
	}
	// A reader that published between our scan and the CAS drains within
	// the bound if it is retracting; otherwise the grant rolls back and
	// the trylock fails — it never waits on a held read lock.
	return m.finishWrite(time.Now().Add(tryLockDrain))
}

// TryRLock attempts read mode without waiting. It fails if a writer holds
// the lock or any waiter is queued (jumping the queue would be unfair).
func (m *RWMutex) TryRLock() bool {
	return m.rlockFast()
}

// TryLockFor attempts write mode, waiting in queue up to d. On timeout the
// waiter leaves the queue in O(1).
func (m *RWMutex) TryLockFor(d time.Duration) bool { return m.acquire(true, time.Now().Add(d)) }

// TryRLockFor attempts read mode, waiting in queue up to d.
func (m *RWMutex) TryRLockFor(d time.Duration) bool { return m.acquire(false, time.Now().Add(d)) }

// acquire is the bounded acquire: the fast path, else the core's slow
// path waited on until the deadline. A write grant then drains the slot
// readers under the same deadline.
func (m *RWMutex) acquire(write bool, deadline time.Time) bool {
	var granted bool
	if write {
		if granted = m.state.CompareAndSwap(0, writerBit); granted {
			m.grantsW.Add(1)
		}
	} else {
		granted = m.rlockFast()
	}
	if !granted && !m.slow(write, deadline) {
		return false
	}
	return !write || m.finishWrite(deadline)
}

// finishWrite completes a bounded write acquisition that already owns the
// writer bit: fast-path readers must drain before the critical section,
// but only until the deadline. One of those readers can be a slot credit
// held by the calling goroutine itself (an upgrade attempt), which will
// never leave — the reference lock resolves that by timing out in queue,
// so on expiry the grant is rolled back, un-counted, and the acquire
// reports failure.
func (m *RWMutex) finishWrite(deadline time.Time) bool {
	if m.drainSlots(deadline) {
		return true
	}
	m.rollbackWrite()
	return false
}

// RLocker returns a sync.Locker whose Lock and Unlock call RLock and
// RUnlock, making RWMutex a drop-in replacement for sync.RWMutex.
func (m *RWMutex) RLocker() sync.Locker { return (*rlocker)(m) }

type rlocker RWMutex

func (r *rlocker) Lock()   { (*RWMutex)(r).RLock() }
func (r *rlocker) Unlock() { (*RWMutex)(r).RUnlock() }

// CohortGrants returns 0.
//
// Deprecated: every grant is in arrival order, so no grant is ever
// handed out of FIFO order.
func (m *RWMutex) CohortGrants() uint64 { return 0 }

// Stats returns the cumulative number of read and write grants. Slot
// grant counters live in the high half of each packed slot word (they
// wrap mod 2^32 per slot, and a blind RUnlock borrow can skew a slot by
// one transiently), so the sums are exact at quiescence and approximate
// under concurrent fast-path traffic — fine for the diagnostics they
// feed.
func (m *RWMutex) Stats() (readGrants, writeGrants uint64) {
	r := m.grantsR.Load()
	for i := range m.slots {
		r += m.slots[i].word.Load() >> 32
	}
	return r, m.grantsW.Load()
}

// QueueLen returns the current number of queued waiters (diagnostics).
func (m *RWMutex) QueueLen() int { return int(m.state.Load() >> qShift) }

// Compile-time drop-in-replacement asserts: fairlock's locks expose the
// same method sets as their sync counterparts.
type rwLocker interface {
	sync.Locker
	RLock()
	RUnlock()
	TryLock() bool
	TryRLock() bool
	RLocker() sync.Locker
}

type tryLocker interface {
	sync.Locker
	TryLock() bool
}

var (
	_ rwLocker  = (*RWMutex)(nil)
	_ rwLocker  = (*sync.RWMutex)(nil)
	_ tryLocker = (*Mutex)(nil)
	_ tryLocker = (*sync.Mutex)(nil)
)
