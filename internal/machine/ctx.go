package machine

import (
	"fmt"

	"fairrw/internal/memmodel"
	"fairrw/internal/obs"
	"fairrw/internal/sim"
)

// Ctx is the execution context of one simulated software thread. Every
// memory or lock operation goes through the Ctx so that preemption (when a
// core hosts several threads) and migration are honoured: an operation
// issued by a descheduled thread waits until the scheduler runs it again.
type Ctx struct {
	M   *Machine
	P   *sim.Proc
	TID uint64

	core         int
	running      bool
	waitingToRun bool
}

// Spawn creates a simulated thread with the given software thread-id,
// initially placed on core. The body runs under the DES kernel.
func (m *Machine) Spawn(name string, tid uint64, core int, body func(c *Ctx)) *Ctx {
	if core < 0 || core >= m.P.Cores {
		panic(fmt.Sprintf("machine: spawn on core %d of %d", core, m.P.Cores))
	}
	c := &Ctx{M: m, TID: tid, core: core}
	c.P = m.K.Spawn(name, func(p *sim.Proc) {
		c.ensureRunning()
		body(c)
		m.sched[c.core].remove(c)
	})
	m.sched[core].add(c)
	return c
}

// Core returns the core the thread currently runs on.
func (c *Ctx) Core() int { return c.core }

// ensureRunning blocks until the scheduler has dispatched this thread on
// its current core.
func (c *Ctx) ensureRunning() {
	for !c.running {
		c.waitingToRun = true
		c.P.Block()
	}
}

// Compute models local computation taking the given number of cycles. It
// advances in sub-quantum chunks so a preemption during a long computation
// takes effect rather than being noticed only at the next operation.
func (c *Ctx) Compute(cycles sim.Time) {
	chunk := c.M.P.Quantum / 4
	if chunk == 0 {
		chunk = 1
	}
	for cycles > 0 {
		c.ensureRunning()
		step := cycles
		if step > chunk {
			step = chunk
		}
		c.P.Wait(step)
		cycles -= step
	}
}

// Load performs a coherent load.
func (c *Ctx) Load(addr memmodel.Addr) uint64 {
	c.ensureRunning()
	return c.M.Sys.Read(c.P, c.core, addr)
}

// Store performs a coherent store.
func (c *Ctx) Store(addr memmodel.Addr, v uint64) {
	c.ensureRunning()
	c.M.Sys.Write(c.P, c.core, addr, v)
}

// CAS performs an atomic compare-and-swap.
func (c *Ctx) CAS(addr memmodel.Addr, old, new uint64) bool {
	c.ensureRunning()
	return c.M.Sys.CAS(c.P, c.core, addr, old, new)
}

// FetchAdd atomically adds delta, returning the previous value.
func (c *Ctx) FetchAdd(addr memmodel.Addr, delta uint64) uint64 {
	c.ensureRunning()
	return c.M.Sys.FetchAdd(c.P, c.core, addr, delta)
}

// Swap atomically exchanges the word, returning the previous value.
func (c *Ctx) Swap(addr memmodel.Addr, v uint64) uint64 {
	c.ensureRunning()
	return c.M.Sys.Swap(c.P, c.core, addr, v)
}

// WaitChange parks the thread until the word at addr differs from old.
// Software locks use it for event-driven local spinning.
func (c *Ctx) WaitChange(addr memmodel.Addr, old uint64) {
	c.ensureRunning()
	c.M.Sys.WaitChange(c.P, addr, old)
}

// WaitChangeTimeout is WaitChange bounded by d cycles; reports whether the
// value changed (vs. the timeout firing).
func (c *Ctx) WaitChangeTimeout(addr memmodel.Addr, old uint64, d sim.Time) bool {
	c.ensureRunning()
	return c.M.Sys.WaitChangeTimeout(c.P, addr, old, d)
}

// Acq issues the Acquire ISA primitive to the machine's lock device.
func (c *Ctx) Acq(addr memmodel.Addr, write bool) bool {
	c.ensureRunning()
	return c.M.Lock.Acq(c.P, c.core, c.TID, addr, write)
}

// Rel issues the Release ISA primitive to the machine's lock device.
func (c *Ctx) Rel(addr memmodel.Addr, write bool) bool {
	c.ensureRunning()
	return c.M.Lock.Rel(c.P, c.core, c.TID, addr, write)
}

// HwLock acquires addr through the hardware lock device, blocking until
// granted: the paper's lock() loop of Figure 2 with event-driven spinning
// standing in for the local poll.
func (c *Ctx) HwLock(addr memmodel.Addr, write bool) {
	t0 := c.P.Now()
	for !c.Acq(addr, write) {
		c.ensureRunning()
		c.M.Lock.WaitEvent(c.P, c.core, c.TID, addr, c.M.P.GrantTimeout)
	}
	if o := c.M.Obs; o != nil {
		now := c.P.Now()
		o.LockAcquired(uint64(now), c.core, c.TID, uint64(addr), uint64(now-t0), write)
	}
}

// HwUnlock releases addr through the hardware lock device (Figure 2's
// unlock() loop).
func (c *Ctx) HwUnlock(addr memmodel.Addr, write bool) {
	for !c.Rel(addr, write) {
		c.ensureRunning()
		c.M.Lock.WaitEvent(c.P, c.core, c.TID, addr, c.M.P.GrantTimeout)
	}
	if o := c.M.Obs; o != nil {
		o.Unlocked(uint64(c.P.Now()), c.core, c.TID, uint64(addr))
	}
}

// HwTryLock attempts the lock a bounded number of acq iterations (Figure
// 2's trylock()). It reports whether the lock was obtained.
func (c *Ctx) HwTryLock(addr memmodel.Addr, write bool, retries int) bool {
	t0 := c.P.Now()
	for i := 0; i < retries; i++ {
		if c.Acq(addr, write) {
			if o := c.M.Obs; o != nil {
				now := c.P.Now()
				o.LockAcquired(uint64(now), c.core, c.TID, uint64(addr), uint64(now-t0), write)
			}
			return true
		}
		c.ensureRunning()
		c.M.Lock.WaitEvent(c.P, c.core, c.TID, addr, c.M.P.GrantTimeout/4)
	}
	return false
}

// Migrate moves the thread to another core, as an OS would. Outstanding
// lock-queue entries stay behind on the old core's LCU; the grant timer
// eventually skips them (Section III-C).
func (c *Ctx) Migrate(core int) {
	c.ensureRunning()
	if core == c.core {
		return
	}
	if o := c.M.Obs; o != nil {
		o.Rec(uint64(c.P.Now()), obs.CoreNode(c.core), obs.KMigrate, 0, c.TID, uint64(core))
	}
	c.M.sched[c.core].remove(c)
	c.core = core
	c.running = false
	c.P.Wait(c.M.P.SwitchCost) // OS migration overhead
	c.M.sched[core].add(c)
	c.ensureRunning()
}

// Yield voluntarily ends the thread's timeslice.
func (c *Ctx) Yield() {
	c.ensureRunning()
	s := &c.M.sched[c.core]
	if len(s.ctxs) > 1 {
		s.rotate(c.M)
		c.ensureRunning()
	} else {
		c.P.Yield()
	}
}
