package fairlock

import (
	"runtime"
	"sync/atomic"
	"time"
	"unsafe"
)

// BRAVO-style distributed reader indicator (Dice & Kogan, "BRAVO — Biased
// Locking for Reader-Writer Locks", USENIX ATC 2018), adapted to the
// paper's LCU semantics: when the lock is read-biased, readers publish
// themselves in a per-lock table of padded slots instead of CASing the
// shared state word, so reader admission scales across cores. A writer
// revokes the bias and waits for every slot to drain before entering its
// critical section, which is exactly the read-grant/flush ordering the
// LCU enforces in hardware.
//
// The bias is only ever set while the lock has no writer and no queued
// waiter, so the slot fast path is taken precisely under the conditions
// where TryRLock would succeed — admission order is unchanged.

// numSlots is the size of each RWMutex's reader table. Each slot is one
// 128-byte line, so the table adds 2 KiB to the lock; collisions only
// cost line sharing, never correctness.
const numSlots = 16

// rslot is one padded entry of the distributed reader indicator. Both of
// the slot's counters live in one atomic word so the biased read paths are
// a single RMW each:
//
//	bits 0..31   active fast-path readers published here, as an int32 —
//	             RUnlock decrements blindly and detects (then undoes) a
//	             borrow when the half goes negative
//	bits 32..63  cumulative fast-path read grants via this slot (wraps
//	             mod 2^32; diagnostics only)
//
// Publishing a biased read is word.Add(slotGrant+1): one RMW both takes
// the credit and counts the grant.
type rslot struct {
	word atomic.Uint64
	_    [120]byte // pad to 128 B against false sharing
}

// slotGrant is the packed-word increment for the grants half.
const slotGrant = uint64(1) << 32

// slotReaders extracts the active-reader half of a packed slot word as a
// signed count (negative only in the transient borrow window of a blind
// RUnlock decrement).
func slotReaders(v uint64) int32 { return int32(uint32(v)) }

// slotIndex hashes the current goroutine to a reader slot from the
// address of a stack local, the same trick the BRAVO paper uses with the
// thread's stack pointer: distinct goroutines live on distinct stacks, and
// the same goroutine's RLock and RUnlock frames sit within the same 8 KiB
// window, so the pair lands on the same slot without needing a goroutine
// id. A mismatch (stack growth between lock and unlock, or a
// cross-goroutine RUnlock) is only a performance event — credit release
// falls back to the central count and then to scanning the table.
func slotIndex() uint32 {
	var x byte
	return uint32(uintptr(unsafe.Pointer(&x))>>13) % numSlots
}

// casDecPositive removes one reader credit from the packed slot word iff
// its reader half is currently positive, never driving it below zero.
func casDecPositive(sl *rslot) bool {
	for {
		v := sl.word.Load()
		if slotReaders(v) <= 0 {
			return false
		}
		if sl.word.CompareAndSwap(v, v-1) {
			return true
		}
	}
}

// drainSlots waits for fast-path readers (published before the bias was
// revoked) to leave. Every writer runs it after it owns the writer bit
// and before entering its critical section; with an empty table it is
// numSlots uncontended loads. A non-zero deadline bounds the wait: past
// it drainSlots returns false, with slots possibly still populated.
// Bounded write acquisitions rely on that to honor their bound even
// against a reader that will never leave, e.g. a slot credit held by the
// calling goroutine itself (an upgrade attempt, which the reference lock
// resolves by timing out). A populated drain records its cost and
// inhibits re-enabling the bias for a multiple of it (BRAVO's adaptive
// revocation policy). A transiently negative reader half (a blind RUnlock
// decrement about to be undone) reads as non-zero and just extends the
// spin by an iteration.
func (m *RWMutex) drainSlots(deadline time.Time) bool {
	if !m.everBiased.Load() {
		// The bias has never been on, so no reader ever published in a
		// slot: write-heavy locks skip the table scan entirely.
		return true
	}
	var began time.Time
	for i := range m.slots {
		if slotReaders(m.slots[i].word.Load()) == 0 {
			continue
		}
		if began.IsZero() {
			began = time.Now()
		}
		for spins := 0; slotReaders(m.slots[i].word.Load()) != 0; spins++ {
			if !deadline.IsZero() && !time.Now().Before(deadline) {
				return false
			}
			if spins < 64 {
				runtime.Gosched()
			} else {
				time.Sleep(time.Microsecond)
			}
		}
	}
	if !began.IsZero() {
		cost := time.Since(began)
		m.inhibitUntil.Store(time.Now().Add(biasInhibitMult * cost).UnixNano())
	}
	return true
}

// retract removes the provisional credit (and its grant count) this reader
// just published in sl after losing the publish/revoke race. If the slot's
// reader half already reads zero, a concurrent RUnlock consumed our credit
// as if we held the lock (a credit swap — see releaseReadCredit); its own
// credit is still in the aggregate, so un-count only the grant here and
// remove one credit from wherever the swapped credit now lives.
func (m *RWMutex) retract(sl *rslot) {
	for {
		v := sl.word.Load()
		if slotReaders(v) > 0 {
			if sl.word.CompareAndSwap(v, v-slotGrant-1) {
				return
			}
			continue
		}
		if sl.word.CompareAndSwap(v, v-slotGrant) {
			m.releaseReadCredit(sl, false)
			return
		}
	}
}

// releaseReadCredit removes exactly one read credit from the aggregate
// reader count (sum of all slots plus the central count). It prefers the
// hashed slot, then the central count, then any slot: credits migrate
// between counters when an RLock and its RUnlock land on different
// counters (P migration, cross-goroutine unlock, or a hash collision), but
// the aggregate — which is all that admission and writer drain depend on —
// is always conserved. mayPanic distinguishes API misuse (RUnlock of an
// unheld lock) from the transient window where a concurrent publication or
// retraction hides the credit; misuse still panics after bounded retries.
func (m *RWMutex) releaseReadCredit(sl *rslot, mayPanic bool) {
	for attempt := 0; ; attempt++ {
		if casDecPositive(sl) {
			return
		}
		for {
			s := m.state.Load()
			if s&readerMask == 0 {
				break
			}
			if m.state.CompareAndSwap(s, s-1) {
				if s&readerMask == 1 && s>>qShift != 0 {
					// Last central reader out with waiters queued.
					m.qmu.Lock()
					m.admit()
					m.qmu.Unlock()
				}
				return
			}
		}
		for i := range m.slots {
			if casDecPositive(&m.slots[i]) {
				return
			}
		}
		if mayPanic && attempt >= 128 {
			panic("fairlock: RUnlock of non-read-locked RWMutex")
		}
		runtime.Gosched()
	}
}
