package fairlock

import "time"

// Mutex is a FIFO-fair mutual-exclusion lock: waiters are admitted in
// strict arrival order, like the write mode of RWMutex (and unlike
// sync.Mutex, whose unlock can be barged by a spinning newcomer). It also
// provides the trylock and timed acquisition of the paper's Figure 2.
// The zero value is ready to use.
//
// Mutex is RWMutex's write mode on the same queue core, without the
// reader table: the CAS fast path, the spin, the FIFO and the hand-off
// release are the core's. While anyone waits the state word is never
// zero, so an unlock cannot be barged.
type Mutex struct{ c core }

// Lock acquires the mutex, queueing FIFO behind earlier waiters.
func (m *Mutex) Lock() {
	if !m.TryLock() {
		m.c.slow(true, time.Time{})
	}
}

// Unlock releases the mutex, handing it directly to the queue head.
func (m *Mutex) Unlock() { m.c.unlock() }

// TryLock acquires the mutex only if it is free and nobody waits.
func (m *Mutex) TryLock() bool {
	if m.c.state.CompareAndSwap(0, writerBit) {
		m.c.grantsW.Add(1)
		return true
	}
	return false
}

// TryLockFor acquires the mutex, waiting in queue at most d. A timed-out
// waiter unlinks itself in O(1).
func (m *Mutex) TryLockFor(d time.Duration) bool {
	return m.TryLock() || m.c.slow(true, time.Now().Add(d))
}

// Grants returns the cumulative number of acquisitions (diagnostics).
func (m *Mutex) Grants() uint64 { return m.c.grantsW.Load() }

// QueueLen returns the current number of queued waiters (diagnostics).
func (m *Mutex) QueueLen() int { return int(m.c.state.Load() >> qShift) }
