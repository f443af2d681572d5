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
// Internally the lock is built in three layers, mirroring how the LCU
// composes with its fallback path:
//
//  1. a single atomic state word (readers | writer | bias | queue length)
//     gives Lock/Unlock/RLock/RUnlock an allocation-free CAS fast path
//     whenever there is no contention;
//  2. a BRAVO-style distributed reader table (bravo.go) lets concurrent
//     readers scale across cores while no writer holds or waits — the
//     fast path is open exactly when TryRLock would succeed, so fairness
//     is unchanged;
//  3. the contended path parks waiters on an intrusive pooled FIFO
//     (waiter.go), preserving arrival order and reader-batch admission
//     without allocating per acquire.
//
// The original single-mutex implementation is preserved as RefRWMutex /
// RefMutex (reference.go) and the differential tests check the two
// implementations admit identically.
package fairlock

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// State word layout (RWMutex.state):
//
//	bits 0..29   central reader count (readers admitted via the slow path)
//	bit  30      writer holds the lock
//	bit  31      read bias enabled (BRAVO slot fast path open)
//	bits 32..63  queue length (waiters parked in q)
//
// Queue-length bits only change under qmu, so the queue structure and its
// length in the word can never disagree while qmu is held; reader/writer
// bits change by lock-free CAS from any path.
const (
	writerBit  uint64 = 1 << 30
	biasBit    uint64 = 1 << 31
	readerMask uint64 = writerBit - 1
	qShift            = 32
	qOne       uint64 = 1 << qShift
)

// Bias policy: try to enable the read bias every biasRetryGrants central
// read grants, and after a revocation that had to drain live readers,
// inhibit re-enabling for biasInhibitMult times the drain cost.
const (
	biasRetryGrants = 64
	biasInhibitMult = 9
)

// RWMutex is a fair FIFO reader-writer lock. The zero value is ready to
// use. An RWMutex must not be copied after first use.
type RWMutex struct {
	state atomic.Uint64

	qmu sync.Mutex // guards q and the queue-length bits of state
	q   waitq

	grantsR atomic.Uint64 // central-path read grants (slot grants live in slots)
	grantsW atomic.Uint64

	inhibitUntil atomic.Int64 // unix nanos before which bias may not re-enable
	everBiased   atomic.Bool  // bias was enabled at least once (drain gate)

	slots [numSlots]rslot // BRAVO distributed reader indicator
}

// spinGrants is how many times a contended acquirer retries its fast path
// (yielding in between) before parking on the FIFO. Spinning delays the
// waiter's own arrival, so it cannot overtake anyone already queued; it
// just avoids the full park/handoff round trip when the holder is about
// to release.
const spinGrants = 4

// fissileSpins is the budget of the fissile TATAS phase (Dice & Kogan,
// "Fissile Locks"): how many active probes of the state word a contended
// acquirer makes before it starts yielding whole scheduling quanta. The
// active probes resolve the common near-miss — the holder releasing
// within a few dozen nanoseconds — without surrendering the P, which is
// what closes the gap to sync.RWMutex under light contention. Zero
// disables the phase (the pre-fissile behavior); the bench matrix sweeps
// it. Spinning still never overtakes a queued waiter: every probe checks
// the queue-length bits first.
var fissileSpins atomic.Int32

const defaultFissileSpins = 64

func init() {
	// Active spinning only pays when the holder can run concurrently; on
	// a single-core machine a spinner just delays the holder's release
	// (the same gate sync.Mutex applies through runtime_canSpin).
	if runtime.NumCPU() > 1 {
		fissileSpins.Store(defaultFissileSpins)
	}
}

// setFissileSpins adjusts the TATAS budget and returns the previous value
// (bench/test knob).
func setFissileSpins(n int32) int32 { return fissileSpins.Swap(n) }

// Lock acquires the lock in write (exclusive) mode.
func (m *RWMutex) Lock() {
	if m.state.CompareAndSwap(0, writerBit) {
		m.grantsW.Add(1)
	} else if !m.spinAcquire(true) {
		if w := m.enqueue(true); w != nil {
			<-w.ready
			putWaiter(w)
		}
	}
	if m.everBiased.Load() {
		m.drainSlots()
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
	if m.rlockFast() {
		return
	}
	if m.spinAcquire(false) {
		return
	}
	if w := m.enqueue(false); w != nil {
		<-w.ready
		putWaiter(w)
	}
}

// spinAcquire retries the fast path before the caller parks on the FIFO:
// first the fissile TATAS phase (bounded active probes of the state
// word), then a few retries separated by yields. It gives up as soon as
// anyone is queued: spinning only delays this waiter's own arrival, so it
// can never overtake a queued waiter, it just avoids the park/handoff
// round trip when the holder is about to release.
func (m *RWMutex) spinAcquire(write bool) bool {
	for i, n := int32(0), fissileSpins.Load(); i < n; i++ {
		s := m.state.Load()
		if s>>qShift != 0 {
			return false
		}
		if write {
			if s&biasBit != 0 {
				// Fast-path readers never observe a spinning writer; only
				// enqueue revokes the bias. Go revoke instead.
				return false
			}
			if s == 0 && m.state.CompareAndSwap(0, writerBit) {
				m.grantsW.Add(1)
				return true
			}
		} else if s&writerBit == 0 && m.rlockFast() {
			return true
		}
	}
	for i := 0; i < spinGrants; i++ {
		runtime.Gosched()
		s := m.state.Load()
		if s>>qShift != 0 {
			return false
		}
		if write {
			if s&biasBit != 0 {
				// Only enqueue revokes the bias, so spinning can never
				// succeed against a biased lock — and each yield is a full
				// scheduling quantum when fast-path readers never block.
				// Go revoke instead.
				return false
			}
			if s == 0 && m.state.CompareAndSwap(0, writerBit) {
				m.grantsW.Add(1)
				return true
			}
		} else if m.rlockFast() {
			return true
		}
	}
	return false
}

// rlockFast is the uncontended read path: the BRAVO slot publish when the
// lock is read-biased, otherwise a CAS on the central count when no writer
// holds or waits. It succeeds exactly when TryRLock would.
func (m *RWMutex) rlockFast() bool {
	s := m.state.Load()
	if s&biasBit != 0 {
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
		s = m.state.Load()
	}
	for s&writerBit == 0 && s>>qShift == 0 {
		if m.state.CompareAndSwap(s, s+1) {
			m.grantedCentralRead()
			return true
		}
		s = m.state.Load()
	}
	return false
}

// grantedCentralRead accounts a central-path read grant and periodically
// attempts to re-enable the read bias.
func (m *RWMutex) grantedCentralRead() {
	if n := m.grantsR.Add(1); n%biasRetryGrants == 0 {
		m.tryEnableBias()
	}
}

// enqueue takes the slow path: an immediate grant if the lock is free and
// nothing is queued (re-checked under qmu), otherwise a pooled waiter
// appended to the FIFO. A writer revokes the read bias in the same CAS
// that publishes it, so no new slot readers can slip past a queued writer.
// It returns nil on immediate grant.
func (m *RWMutex) enqueue(write bool) *waiter {
	m.qmu.Lock()
	for {
		s := m.state.Load()
		if s>>qShift == 0 && s&writerBit == 0 && (!write || s&readerMask == 0) {
			var ns uint64
			if write {
				ns = (s | writerBit) &^ biasBit
			} else {
				ns = s + 1
			}
			if !m.state.CompareAndSwap(s, ns) {
				continue
			}
			m.qmu.Unlock()
			if write {
				m.grantsW.Add(1)
			} else {
				m.grantedCentralRead()
			}
			return nil
		}
		ns := s + qOne
		if write {
			ns &^= biasBit
		}
		if !m.state.CompareAndSwap(s, ns) {
			continue
		}
		w := newWaiter(write)
		m.q.pushBack(w)
		m.qmu.Unlock()
		return w
	}
}

// admit grants the lock to the queue head — and, for a reader head, to
// every consecutive reader behind it (the reader-batch admission of the
// paper's read-grant chaining) — in strict FIFO order. A granted reader
// keeps the loop running while a granted writer ends it. Callers hold qmu.
func (m *RWMutex) admit() {
	for h := m.q.head; h != nil; h = m.q.head {
		// Read the mode before the grant: once ready is sent, the woken
		// goroutine may recycle h.
		write := h.write
		if write {
			for {
				s := m.state.Load()
				if s&(writerBit|readerMask) != 0 {
					return
				}
				if m.state.CompareAndSwap(s, ((s-qOne)|writerBit)&^biasBit) {
					break
				}
			}
			m.grantsW.Add(1)
		} else {
			for {
				s := m.state.Load()
				if s&writerBit != 0 {
					return
				}
				if m.state.CompareAndSwap(s, s-qOne+1) {
					break
				}
			}
			m.grantedCentralRead()
		}
		m.q.remove(h)
		h.ready <- struct{}{}
		if write {
			return
		}
	}
}

// Unlock releases write mode. It panics if the lock is not write-held.
func (m *RWMutex) Unlock() {
	for {
		s := m.state.Load()
		if s&writerBit == 0 {
			panic("fairlock: Unlock of non-write-locked RWMutex")
		}
		if m.state.CompareAndSwap(s, s&^writerBit) {
			if s>>qShift != 0 {
				m.qmu.Lock()
				m.admit()
				m.qmu.Unlock()
			}
			return
		}
	}
}

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
// live even when the state word is zero: a timed write that rolled back
// mid-drain (finishTimedWrite) leaves the bias off with slot credits
// still outstanding, so both idle states must scan the table.
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
	return m.finishTimedWrite(time.Now().Add(tryLockDrain))
}

// TryRLock attempts read mode without waiting. It fails if a writer holds
// the lock or any waiter is queued (jumping the queue would be unfair).
func (m *RWMutex) TryRLock() bool {
	return m.rlockFast()
}

// TryLockFor attempts write mode, waiting in queue up to d. On timeout the
// waiter leaves the queue in O(1) (the LCU's expired-trylock entry is
// skipped by its grant timer; here we unlink it synchronously).
func (m *RWMutex) TryLockFor(d time.Duration) bool { return m.tryFor(true, d) }

// TryRLockFor attempts read mode, waiting in queue up to d.
func (m *RWMutex) TryRLockFor(d time.Duration) bool { return m.tryFor(false, d) }

func (m *RWMutex) tryFor(write bool, d time.Duration) bool {
	var w *waiter
	var deadline time.Time
	if write {
		deadline = time.Now().Add(d)
		if m.state.CompareAndSwap(0, writerBit) {
			m.grantsW.Add(1)
			return m.finishTimedWrite(deadline)
		}
		if w = m.enqueue(true); w == nil {
			return m.finishTimedWrite(deadline)
		}
	} else {
		if m.rlockFast() {
			return true
		}
		if w = m.enqueue(false); w == nil {
			return true
		}
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-w.ready:
		putWaiter(w)
		if write {
			return m.finishTimedWrite(deadline)
		}
		return true
	case <-timer.C:
	}
	// Timed out: unlink ourselves, but the grant may have raced the timer.
	if m.abandonWait(w) {
		return false
	}
	// Already unlinked by a grant: the token is (or will be) in the
	// channel; we hold the lock.
	<-w.ready
	putWaiter(w)
	if write {
		return m.finishTimedWrite(deadline)
	}
	return true
}

// finishTimedWrite completes a timed write acquisition that already owns
// the writer bit: fast-path readers must drain before the critical
// section, but only until the caller's deadline. One of those readers can
// be a slot credit held by the calling goroutine itself (an upgrade
// attempt), which will never leave — the reference lock resolves that by
// timing out in queue, so on expiry the grant is rolled back, un-counted,
// and the acquire reports failure.
func (m *RWMutex) finishTimedWrite(deadline time.Time) bool {
	if m.drainSlotsUntil(deadline) {
		return true
	}
	m.rollbackWrite()
	return false
}

// rollbackWrite surrenders a writer bit whose acquisition is being
// abandoned before the critical section was entered: the grant is
// un-counted and any queued waiters are admitted, exactly as if the
// writer had never been granted.
func (m *RWMutex) rollbackWrite() {
	m.grantsW.Add(^uint64(0)) // un-count the rolled-back grant
	for {
		s := m.state.Load()
		if m.state.CompareAndSwap(s, s&^writerBit) {
			if s>>qShift != 0 {
				m.qmu.Lock()
				m.admit()
				m.qmu.Unlock()
			}
			return
		}
	}
}

// cancelDrainSlice bounds each slot-drain attempt of a cancellable write
// acquisition, so revocation is observed within a scheduling quantum or
// two even against a reader that never leaves.
const cancelDrainSlice = 200 * time.Microsecond

// finishCancelWrite completes a cancellable write acquisition that already
// owns the writer bit: fast-path readers drain in bounded slices, checking
// cancel between slices. On cancellation the grant is rolled back and the
// acquire reports failure — like a timed write whose deadline passed.
func (m *RWMutex) finishCancelWrite(cancel <-chan struct{}) bool {
	for !m.drainSlotsUntil(time.Now().Add(cancelDrainSlice)) {
		select {
		case <-cancel:
			m.rollbackWrite()
			return false
		default:
		}
	}
	return true
}

// LockCancel acquires write mode like Lock, but abandons the attempt when
// cancel is closed — the revocation hook a lock service needs to evict the
// queued waiters of a dead session without disturbing arrival order for
// anyone else. It reports whether the lock was acquired. A cancelled
// waiter leaves the queue in O(1); if the grant races the cancellation,
// the caller owns the lock and true is returned (the service releases it
// when it finds the session gone).
func (m *RWMutex) LockCancel(cancel <-chan struct{}) bool {
	if m.state.CompareAndSwap(0, writerBit) {
		m.grantsW.Add(1)
		return m.finishCancelWrite(cancel)
	}
	w := m.enqueue(true)
	if w == nil {
		return m.finishCancelWrite(cancel)
	}
	select {
	case <-w.ready:
		putWaiter(w)
		return m.finishCancelWrite(cancel)
	case <-cancel:
	}
	if m.abandonWait(w) {
		return false
	}
	// Already unlinked by a grant: consume the token; we hold the lock.
	<-w.ready
	putWaiter(w)
	return m.finishCancelWrite(cancel)
}

// RLockCancel acquires read mode like RLock, but abandons the attempt when
// cancel is closed. It reports whether the lock was acquired (see
// LockCancel for the grant/cancel race).
func (m *RWMutex) RLockCancel(cancel <-chan struct{}) bool {
	if m.rlockFast() {
		return true
	}
	w := m.enqueue(false)
	if w == nil {
		return true
	}
	select {
	case <-w.ready:
		putWaiter(w)
		return true
	case <-cancel:
	}
	if m.abandonWait(w) {
		return false
	}
	<-w.ready
	putWaiter(w)
	return true
}

// abandonWait unlinks a waiter whose timeout or cancellation fired. It
// reports whether the waiter was still queued (and is now gone); false
// means a grant won the race and its token is (or will be) in w.ready.
func (m *RWMutex) abandonWait(w *waiter) bool {
	m.qmu.Lock()
	if !w.queued {
		m.qmu.Unlock()
		return false
	}
	m.q.remove(w)
	for {
		s := m.state.Load()
		if m.state.CompareAndSwap(s, s-qOne) {
			break
		}
	}
	// Our departure may unblock followers (e.g. a writer that was queued
	// behind the reader-batch boundary this waiter formed).
	m.admit()
	m.qmu.Unlock()
	putWaiter(w)
	return true
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
