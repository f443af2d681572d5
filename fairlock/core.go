package fairlock

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fairrw/internal/fairq"
)

// State word layout (core.state):
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

// spinGrants is how many times a contended acquirer retries its fast
// path, each after a yield, before parking on the FIFO. Spinning delays
// the waiter's own arrival, so it cannot overtake anyone already queued;
// it just avoids the full park/handoff round trip when the holder is
// about to release. Active probes before the first yield (the TATAS phase
// of Dice & Kogan's "Fissile Locks") measured inside the noise on every
// cell of the bench matrix (EXPERIMENTS.md, "One queue in fairlock").
const spinGrants = 4

// core is the one fair queue both locks run on: the state word, the FIFO
// of parked waiters and its admission rule, the grant counters and the
// read-bias policy. RWMutex is a core plus the BRAVO reader table; Mutex
// is a core used in write mode only, so it never sets a reader bit or
// the bias.
type core struct {
	state atomic.Uint64

	qmu sync.Mutex // guards q and the queue-length bits of state
	q   fairq.Queue[chan struct{}]

	grantsR atomic.Uint64 // central-path read grants (slot grants live in slots)
	grantsW atomic.Uint64

	inhibitUntil atomic.Int64 // unix nanos before which bias may not re-enable
	everBiased   atomic.Bool  // bias was enabled at least once (drain gate)
}

// lockSlow is the blocking acquire after the fast path failed: spin, then
// park on the FIFO until granted.
func (c *core) lockSlow(write bool) {
	if c.spinAcquire(write) {
		return
	}
	if w := c.enqueue(write); w != nil {
		<-w.V
		putWaiter(w)
	}
}

// spinAcquire retries the fast path spinGrants times, yielding before
// each try, and gives up as soon as a waiter is queued. The yield comes
// first, so even a spinner that finds the queue busy yields once before
// it parks: it has not arrived yet, so yielding cannot overtake anyone,
// and it often lets the hand-off finish so the spinner wins without a
// park. A spinning reader retries only the central count; the slot path
// is RLock's.
func (c *core) spinAcquire(write bool) bool {
	for i := 0; i < spinGrants; i++ {
		if write && c.state.Load()&biasBit != 0 {
			// Only enqueue revokes the bias, so spinning cannot succeed
			// against a biased lock. Go revoke instead of yielding.
			return false
		}
		runtime.Gosched()
		s := c.state.Load()
		if s>>qShift != 0 {
			return false
		}
		if !write {
			if s&writerBit == 0 && c.rlockCentral() {
				return true
			}
		} else if s == 0 && c.state.CompareAndSwap(0, writerBit) {
			c.grantsW.Add(1)
			return true
		}
	}
	return false
}

// rlockCentral admits a reader on the central count when no writer holds
// or waits and nobody is queued.
func (c *core) rlockCentral() bool {
	for s := c.state.Load(); s&writerBit == 0 && s>>qShift == 0; s = c.state.Load() {
		if c.state.CompareAndSwap(s, s+1) {
			c.grantedCentralRead()
			return true
		}
	}
	return false
}

// grantedCentralRead accounts a central-path read grant and periodically
// attempts to re-enable the read bias.
func (c *core) grantedCentralRead() {
	if n := c.grantsR.Add(1); n%biasRetryGrants == 0 {
		c.tryEnableBias()
	}
}

// tryEnableBias flips the read bias on when the policy allows it. Bias is
// only set when there is no writer and no queued waiter, and that holds
// atomically because both facts live in the same state word as the bias
// bit.
func (c *core) tryEnableBias() {
	if time.Now().UnixNano() < c.inhibitUntil.Load() {
		return
	}
	s := c.state.Load()
	if s&(writerBit|biasBit) == 0 && s>>qShift == 0 {
		// everBiased must be visible before the bias bit is: a writer that
		// never observes the bias must still scan the table if any reader
		// could have published there.
		c.everBiased.Store(true)
		c.state.CompareAndSwap(s, s|biasBit)
	}
}

// enqueue takes the slow path: an immediate grant if the lock is free and
// nothing is queued (re-checked under qmu), otherwise a pooled waiter
// appended to the FIFO. A writer revokes the read bias in the same CAS
// that publishes it, so no new slot readers can slip past a queued writer.
// It returns nil on immediate grant.
func (c *core) enqueue(write bool) *waiter {
	c.qmu.Lock()
	for {
		s := c.state.Load()
		if s>>qShift == 0 && s&writerBit == 0 && (!write || s&readerMask == 0) {
			var ns uint64
			if write {
				ns = (s | writerBit) &^ biasBit
			} else {
				ns = s + 1
			}
			if !c.state.CompareAndSwap(s, ns) {
				continue
			}
			c.qmu.Unlock()
			if write {
				c.grantsW.Add(1)
			} else {
				c.grantedCentralRead()
			}
			return nil
		}
		ns := s + qOne
		if write {
			ns &^= biasBit
		}
		if !c.state.CompareAndSwap(s, ns) {
			continue
		}
		w := newWaiter(write)
		c.q.Enqueue(w)
		c.qmu.Unlock()
		return w
	}
}

// admit is fairq.Lock.Admit encoded in the state word: it grants the
// lock to the queue head — and, for a reader head, to every consecutive
// reader behind it (the paper's read-grant chaining) — in strict FIFO
// order, each grant a CAS that also drops the queue count. A granted
// reader keeps the loop running while a granted writer ends it. Callers
// hold qmu.
func (c *core) admit() {
	for h := c.q.Head(); h != nil; h = c.q.Head() {
		// Read the mode before the grant: once the token is sent, the woken
		// goroutine may recycle h.
		write := h.Write
		if write {
			for {
				s := c.state.Load()
				if s&(writerBit|readerMask) != 0 {
					return
				}
				if c.state.CompareAndSwap(s, ((s-qOne)|writerBit)&^biasBit) {
					break
				}
			}
			c.grantsW.Add(1)
		} else {
			for {
				s := c.state.Load()
				if s&writerBit != 0 {
					return
				}
				if c.state.CompareAndSwap(s, s-qOne+1) {
					break
				}
			}
			c.grantedCentralRead()
		}
		c.q.Remove(h)
		h.V <- struct{}{}
		if write {
			return
		}
	}
}

// wait parks on the queued waiter w until it is granted, cancel is closed
// or the deadline passes; a nil cancel or a zero deadline never fires, and
// the timer exists only while a deadline is waited on. A waiter that gives
// up leaves the queue in O(1) (the LCU's expired-trylock entry is skipped
// by its grant timer; here it is unlinked synchronously). It reports
// whether the lock was granted: a grant that races the give-up wins.
func (c *core) wait(w *waiter, cancel <-chan struct{}, deadline time.Time) bool {
	var timeout <-chan time.Time
	if !deadline.IsZero() {
		t := time.NewTimer(time.Until(deadline))
		defer t.Stop()
		timeout = t.C
	}
	select {
	case <-w.V:
	case <-cancel:
		if c.abandon(w) {
			return false
		}
		<-w.V
	case <-timeout:
		if c.abandon(w) {
			return false
		}
		<-w.V
	}
	putWaiter(w)
	return true
}

// abandon unlinks a waiter whose timeout or cancellation fired. It
// reports whether the waiter was still queued (and is now gone); false
// means a grant won the race and its token is (or will be) in w.V.
func (c *core) abandon(w *waiter) bool {
	c.qmu.Lock()
	if !c.q.Queued(w) {
		c.qmu.Unlock()
		return false
	}
	c.q.Remove(w)
	for {
		s := c.state.Load()
		if c.state.CompareAndSwap(s, s-qOne) {
			break
		}
	}
	// Our departure may unblock followers (e.g. a writer that was queued
	// behind the reader-batch boundary this waiter formed).
	c.admit()
	c.qmu.Unlock()
	putWaiter(w)
	return true
}

// unlock releases write mode: it clears the writer bit, then admits the
// queue head under qmu. While anyone is queued the state word is never 0,
// so no fast-path acquire can barge in between the two steps.
func (c *core) unlock() {
	for {
		s := c.state.Load()
		if s&writerBit == 0 {
			panic("fairlock: Unlock of non-write-locked lock")
		}
		if c.state.CompareAndSwap(s, s&^writerBit) {
			if s>>qShift != 0 {
				c.qmu.Lock()
				c.admit()
				c.qmu.Unlock()
			}
			return
		}
	}
}

// rollbackWrite surrenders a writer bit whose acquisition is being
// abandoned before the critical section was entered: the grant is
// un-counted and any queued waiters are admitted, exactly as if the
// writer had never been granted.
func (c *core) rollbackWrite() {
	c.grantsW.Add(^uint64(0))
	c.unlock()
}
