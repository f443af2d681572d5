// Package swlocks implements the software lock baselines of Section IV
// executing on the simulated coherent memory system: TAS and TATAS
// single-line locks, the MCS queue lock, a fair reader-writer queue lock
// with a centralized reader counter (the MRSW baseline) and a POSIX-style
// adaptive mutex.
//
// Every operation goes through machine.Ctx loads, stores and atomics, so
// the coherence traffic — line bouncing for TAS, invalidate+refetch pairs
// on queue-lock handoffs, the reader-counter hotspot of MRSW — is charged
// by the timing model rather than asserted.
package swlocks

import (
	"fairrw/internal/machine"
	"fairrw/internal/memmodel"
	"fairrw/internal/sim"
)

// RWLock is a lock usable in read or write mode. Mutex-only locks treat
// read mode as write mode.
type RWLock interface {
	Lock(c *machine.Ctx, write bool)
	Unlock(c *machine.Ctx, write bool)
	// Name identifies the implementation in benchmark output.
	Name() string
}

// New builds one lock of the named kind on m: "lcu" and "ssb" drive the
// machine's hardware lock device, which must already be installed; tas,
// tatas, mcs, mrsw and posix are software locks.
func New(m *machine.Machine, name string) RWLock {
	switch name {
	case "lcu", "ssb":
		return NewHWLock(m, name)
	case "tas":
		return NewTAS(m)
	case "tatas":
		return NewTATAS(m)
	case "mcs":
		return NewMCS(m)
	case "mrsw":
		return NewMRSW(m)
	case "posix":
		return NewPosix(m)
	}
	panic("swlocks: unknown lock " + name)
}

// backoff applies capped exponential backoff; n is per-call attempt state.
func backoff(c *machine.Ctx, n *int) {
	d := sim.Time(64) << uint(*n)
	if d > 4096 {
		d = 4096
	} else {
		*n++
	}
	// Small deterministic jitter decorrelates contenders.
	d += sim.Time(c.TID*13) % 64
	c.Compute(d)
}

// ---------------------------------------------------------------------------
// TAS: test-and-set. Every attempt is an RMW, bouncing the line in M state
// between contenders.

// TAS is a single-word test-and-set spinlock.
type TAS struct{ addr memmodel.Addr }

// NewTAS allocates a TAS lock.
func NewTAS(m *machine.Machine) *TAS { return &TAS{addr: m.Mem.AllocLine()} }

// Name implements RWLock.
func (l *TAS) Name() string { return "tas" }

// Lock acquires the lock (read mode is treated as write).
func (l *TAS) Lock(c *machine.Ctx, write bool) {
	n := 0
	for !c.CAS(l.addr, 0, 1) {
		backoff(c, &n)
	}
}

// Unlock releases the lock.
func (l *TAS) Unlock(c *machine.Ctx, write bool) { c.Store(l.addr, 0) }

// ---------------------------------------------------------------------------
// TATAS: test-and-test-and-set. Spin reading the cached line; attempt the
// RMW only when the lock is observed free.

// TATAS is a test-and-test-and-set spinlock with exponential backoff.
type TATAS struct{ addr memmodel.Addr }

// NewTATAS allocates a TATAS lock.
func NewTATAS(m *machine.Machine) *TATAS { return &TATAS{addr: m.Mem.AllocLine()} }

// Name implements RWLock.
func (l *TATAS) Name() string { return "tatas" }

// Lock acquires the lock (read mode is treated as write).
func (l *TATAS) Lock(c *machine.Ctx, write bool) {
	n := 0
	for {
		v := c.Load(l.addr)
		if v == 0 {
			if c.CAS(l.addr, 0, 1) {
				return
			}
			backoff(c, &n)
			continue
		}
		c.WaitChange(l.addr, v)
	}
}

// Unlock releases the lock.
func (l *TATAS) Unlock(c *machine.Ctx, write bool) { c.Store(l.addr, 0) }

// ---------------------------------------------------------------------------
// MCS queue lock: FIFO, local spinning on a per-thread node.

// MCS is the Mellor-Crummey–Scott queue spinlock.
type MCS struct {
	m    *machine.Machine
	tail memmodel.Addr
	node map[uint64]memmodel.Addr // per-thread qnode: +0 locked, +8 next
}

// NewMCS allocates an MCS lock.
func NewMCS(m *machine.Machine) *MCS {
	return &MCS{m: m, tail: m.Mem.AllocLine(), node: make(map[uint64]memmodel.Addr)}
}

// Name implements RWLock.
func (l *MCS) Name() string { return "mcs" }

func (l *MCS) qnode(tid uint64) memmodel.Addr {
	n, ok := l.node[tid]
	if !ok {
		n = l.m.Mem.AllocLine()
		l.node[tid] = n
	}
	return n
}

// Lock acquires the lock (read mode is treated as write).
func (l *MCS) Lock(c *machine.Ctx, write bool) {
	n := l.qnode(c.TID)
	c.Store(n, 1)   // locked = true
	c.Store(n+8, 0) // next = nil
	pred := c.Swap(l.tail, n)
	if pred == 0 {
		return
	}
	c.Store(pred+8, n)
	for {
		v := c.Load(n)
		if v == 0 {
			return
		}
		c.WaitChange(n, v)
	}
}

// Unlock releases the lock, handing it to the queue successor if any.
func (l *MCS) Unlock(c *machine.Ctx, write bool) {
	n := l.qnode(c.TID)
	next := c.Load(n + 8)
	if next == 0 {
		if c.CAS(l.tail, n, 0) {
			return
		}
		// A successor is linking itself in; wait for the pointer.
		for {
			next = c.Load(n + 8)
			if next != 0 {
				break
			}
			c.WaitChange(n+8, 0)
		}
	}
	c.Store(next, 0) // unblock successor
}

// ---------------------------------------------------------------------------
// MRSW: fair reader-writer queue lock with a centralized reader counter,
// the performance stand-in for the Mellor-Crummey–Scott reader-writer
// queue lock of PPoPP'91 — same FIFO fairness, same two-atomic-ops-per-
// reader counter hotspot the paper measures (Section IV-A).

// MRSW is a ticket-based fair reader-writer lock.
type MRSW struct {
	ticket  memmodel.Addr // next ticket to hand out
	serve   memmodel.Addr // ticket currently being admitted
	readers memmodel.Addr // readers inside the critical section
}

// NewMRSW allocates an MRSW lock (each word on its own line).
func NewMRSW(m *machine.Machine) *MRSW {
	return &MRSW{ticket: m.Mem.AllocLine(), serve: m.Mem.AllocLine(), readers: m.Mem.AllocLine()}
}

// Name implements RWLock.
func (l *MRSW) Name() string { return "mrsw" }

// Lock acquires in the requested mode, in strict ticket (FIFO) order.
func (l *MRSW) Lock(c *machine.Ctx, write bool) {
	t := c.FetchAdd(l.ticket, 1)
	for {
		v := c.Load(l.serve)
		if v == t {
			break
		}
		c.WaitChange(l.serve, v)
	}
	if write {
		// Wait for in-flight readers to drain, holding the turn.
		for {
			r := c.Load(l.readers)
			if r == 0 {
				break
			}
			c.WaitChange(l.readers, r)
		}
		return
	}
	// Reader: join, then immediately admit the next ticket so consecutive
	// readers overlap.
	c.FetchAdd(l.readers, 1)
	c.Store(l.serve, t+1)
}

// Unlock releases the lock.
func (l *MRSW) Unlock(c *machine.Ctx, write bool) {
	if write {
		t := c.Load(l.serve)
		c.Store(l.serve, t+1)
		return
	}
	c.FetchAdd(l.readers, ^uint64(0)) // -1
}

// ---------------------------------------------------------------------------
// Posix: a Solaris-style adaptive mutex — spin briefly, then yield the
// processor between attempts. Used as the Figure 13 software baseline.

// Posix approximates the default POSIX mutex of the paper's Solaris host:
// adaptive — spin while the owner is on-CPU (here: test-and-test-and-set
// with event-driven local spinning), parking only after sustained failure.
type Posix struct {
	addr  memmodel.Addr
	spins int
}

// NewPosix allocates an adaptive mutex.
func NewPosix(m *machine.Machine) *Posix {
	return &Posix{addr: m.Mem.AllocLine(), spins: 30}
}

// Name implements RWLock.
func (l *Posix) Name() string { return "posix" }

// Lock acquires the mutex (read mode is treated as write).
func (l *Posix) Lock(c *machine.Ctx, write bool) {
	n := 0
	for i := 0; ; i++ {
		v := c.Load(l.addr)
		if v == 0 {
			if c.CAS(l.addr, 0, 1) {
				return
			}
			backoff(c, &n)
			continue
		}
		if i < l.spins {
			c.WaitChange(l.addr, v)
			continue
		}
		// Sustained contention: park (yield the processor) and retry.
		c.Yield()
		c.Compute(500)
		i = 0
	}
}

// Unlock releases the mutex.
func (l *Posix) Unlock(c *machine.Ctx, write bool) { c.Store(l.addr, 0) }

// ---------------------------------------------------------------------------
// HWLock adapts the machine's hardware lock device (LCU or SSB) to the
// RWLock interface so benchmarks treat all implementations uniformly.

// HWLock drives the machine's installed LockDevice.
type HWLock struct {
	addr memmodel.Addr
	name string
}

// NewHWLock allocates a hardware-locked address.
func NewHWLock(m *machine.Machine, name string) *HWLock {
	return &HWLock{addr: m.Mem.AllocLine(), name: name}
}

// Name implements RWLock.
func (l *HWLock) Name() string { return l.name }

// Lock acquires through the hardware device.
func (l *HWLock) Lock(c *machine.Ctx, write bool) { c.HwLock(l.addr, write) }

// Unlock releases through the hardware device.
func (l *HWLock) Unlock(c *machine.Ctx, write bool) { c.HwUnlock(l.addr, write) }

// ---------------------------------------------------------------------------
// Traced: observability wrapper for software locks. Hardware locks (HWLock)
// are already traced at the machine layer by Ctx.HwLock/HwUnlock; wrapping
// a software lock in Traced gives it the same acquire/release spans and
// acquire-latency samples in the machine's capture.

// Traced decorates an RWLock with observability records.
type Traced struct {
	L RWLock
	// ID identifies this lock instance in trace records (software locks
	// have no architectural lock address).
	ID uint64
}

// Trace wraps l so its acquisitions are recorded under the given lock id.
func Trace(l RWLock, id uint64) *Traced { return &Traced{L: l, ID: id} }

// Name implements RWLock.
func (t *Traced) Name() string { return t.L.Name() }

// Lock acquires the wrapped lock, recording the wait and the acquisition.
func (t *Traced) Lock(c *machine.Ctx, write bool) {
	t0 := c.P.Now()
	t.L.Lock(c, write)
	if o := c.M.Obs; o != nil {
		now := c.P.Now()
		o.LockAcquired(uint64(now), c.Core(), c.TID, t.ID, uint64(now-t0), write)
	}
}

// Unlock releases the wrapped lock, recording the release.
func (t *Traced) Unlock(c *machine.Ctx, write bool) {
	t.L.Unlock(c, write)
	if o := c.M.Obs; o != nil {
		o.Unlocked(uint64(c.P.Now()), c.Core(), c.TID, t.ID)
	}
}
