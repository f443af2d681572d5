package stm

import (
	"fairrw/internal/machine"
	"fairrw/internal/memmodel"
)

// objMode is one access-set element with its commit lock mode.
type objMode struct {
	o     *Obj
	write bool
	got   bool // hwLockOps: the device has granted this lock
}

// lockOps abstracts the per-object reader-writer trylock used by the
// lock-based commit: software RW words (swonly) or the machine's hardware
// lock device (lcu/ssb).
type lockOps interface {
	// acquireSet locks every element (reads shared, writes exclusive) or
	// nothing, returning success.
	acquireSet(c *machine.Ctx, set []objMode) bool
	// releaseSet unlocks the first n elements of the set.
	releaseSet(c *machine.Ctx, set []objMode, n int)
}

// swLockOps uses TL2/TLRW-style single-word RW locks at object headers,
// acquired sequentially with CAS in canonical order. Reader acquisition is
// an atomic RMW on a shared line: the visible-reader congestion of
// Section IV-B. The flat Compute charges model the lock-function
// instruction overhead (calls, barriers) of the software path.
type swLockOps struct{}

const swLockOverhead = 15 // cycles of instructions around each lock op

func (swLockOps) acquireSet(c *machine.Ctx, set []objMode) bool {
	for i, om := range set {
		c.Compute(swLockOverhead)
		if !tryLockWord(c, om.o.hdr, om.write) {
			(swLockOps{}).releaseSet(c, set, i)
			return false
		}
	}
	return true
}

func (swLockOps) releaseSet(c *machine.Ctx, set []objMode, n int) {
	for i := n - 1; i >= 0; i-- {
		c.Compute(swLockOverhead)
		unlockWord(c, set[i].o.hdr, set[i].write)
	}
}

// wordWriter is the writer bit of a header's RW word; the low bits count
// readers.
const wordWriter = uint64(1) << 63

// tryLockWord takes the RW word at a: a write is one CAS from free, a read
// a load and a CAS that adds a reader. It fails if a writer holds the word
// or, for a write, anyone does.
func tryLockWord(c *machine.Ctx, a memmodel.Addr, write bool) bool {
	if write {
		return c.CAS(a, 0, wordWriter)
	}
	v := c.Load(a)
	return v&wordWriter == 0 && c.CAS(a, v, v+1)
}

// unlockWord drops the write or one read share of the RW word at a.
func unlockWord(c *machine.Ctx, a memmodel.Addr, write bool) {
	if write {
		c.Store(a, 0)
	} else {
		c.FetchAdd(a, ^uint64(0)) // -1
	}
}

// hwLockOps drives the installed hardware lock device (LCU or SSB). The
// acq ISA primitive is non-blocking (Section III), so the commit issues
// the requests for the whole access set back to back — each costs only the
// LCU access — and then collects the grants, overlapping the request round
// trips instead of serializing them. Stragglers use bounded trylocks; any
// failure releases everything (the STM trylock usage of Section IV-B).
type hwLockOps struct{}

// hwCollectRetries bounds how long the collect phase waits for straggler
// grants. Failing fast matters: a committer holding granted locks while it
// waits inflates everyone else's hold times.
const (
	hwCollectRetries = 16
	hwCollectSlice   = 80 // cycles per straggler wait
)

func (hwLockOps) acquireSet(c *machine.Ctx, set []objMode) bool {
	// Phase 1: pipeline the requests (acq is non-blocking).
	for i := range set {
		om := &set[i]
		om.got = c.Acq(om.o.hdr, om.write)
	}
	// Phase 2: collect grants round-robin with a bounded total budget.
	for spin := 0; ; spin++ {
		pending := 0
		for i := range set {
			om := &set[i]
			if !om.got {
				om.got = c.Acq(om.o.hdr, om.write)
				if !om.got {
					pending++
				}
			}
		}
		if pending == 0 {
			return true
		}
		if spin >= hwCollectRetries {
			(hwLockOps{}).releaseHeld(c, set)
			return false
		}
		c.Compute(hwCollectSlice)
	}
}

// releaseHeld unlocks the granted subset after a failed collect, then
// actively drains the still-queued requests: it keeps polling each one and
// releases it the moment it is granted. Abandoning them instead would be
// correct (the grant timer skips them, Section III-C) but injects dead
// timeout cycles into every queue the transaction touched.
func (hwLockOps) releaseHeld(c *machine.Ctx, set []objMode) {
	for _, om := range set {
		if om.got {
			c.HwUnlock(om.o.hdr, om.write)
		}
	}
	for {
		pending := 0
		for i := range set {
			om := &set[i]
			if om.got {
				continue
			}
			if c.Acq(om.o.hdr, om.write) {
				c.HwUnlock(om.o.hdr, om.write)
				om.got = true
				continue
			}
			pending++
		}
		if pending == 0 {
			return
		}
		c.Compute(hwCollectSlice)
	}
}

func (hwLockOps) releaseSet(c *machine.Ctx, set []objMode, n int) {
	for i := n - 1; i >= 0; i-- {
		c.HwUnlock(set[i].o.hdr, set[i].write)
	}
}

// lockEngine is the visible-reader, lock-based OSTM commit: acquire RW
// locks over the whole access set in canonical order (writes exclusive,
// reads shared), validate versions, write back, release.
type lockEngine struct {
	ops lockOps
}

func (e *lockEngine) Commit(t *Txn) bool {
	// Lock in descending id order — a canonical acquisition order
	// (deadlock-free among committers) that takes the oldest, hottest
	// objects (roots, entry points) last, so they are held for the
	// shortest time.
	reads := t.sortSet()
	set := t.locks[:0]
	for i := len(reads) - 1; i >= 0; i-- {
		set = append(set, objMode{o: reads[i].o, write: reads[i].write()})
	}
	t.locks = set
	if !e.ops.acquireSet(t.c, set) {
		return false
	}
	// Validate: every opened object still at its recorded version.
	for i := range reads {
		if !t.validate(&reads[i]) {
			e.ops.releaseSet(t.c, set, len(set))
			return false
		}
	}
	writeBack(t)
	e.ops.releaseSet(t.c, set, len(set))
	return true
}

// fraserEngine is the nonblocking commit with invisible readers: CAS
// ownership of the write set, validate the read set, write back, release.
// Read-only transactions validate without writing anything — the source of
// its speed and of its privatization unsafety.
type fraserEngine struct{}

func (e *fraserEngine) Commit(t *Txn) bool {
	set := t.sortSet()
	// disown clears the ownership word of the first n objects written.
	disown := func(n int) {
		for i := 0; n > 0; i++ {
			if set[i].write() {
				t.c.Store(set[i].o.hdr, 0)
				n--
			}
		}
	}
	acquired := 0
	for i := range set {
		if !set[i].write() {
			continue
		}
		if !t.c.CAS(set[i].o.hdr, 0, t.c.TID) {
			disown(acquired)
			return false
		}
		acquired++
	}
	for i := range set {
		// Acquisition already protects a written object; its version is
		// checked below.
		if !set[i].write() && !t.validate(&set[i]) {
			disown(acquired)
			return false
		}
	}
	// Acquired writes: confirm we saw the latest version at open.
	for i := range set {
		if set[i].write() && set[i].o.version != set[i].ver {
			disown(acquired)
			return false
		}
	}
	writeBack(t)
	disown(acquired)
	return true
}
