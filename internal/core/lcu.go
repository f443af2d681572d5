package core

import (
	"fmt"

	"fairrw/internal/memmodel"
	"fairrw/internal/obs"
	"fairrw/internal/sim"
)

// lcu is the per-core Lock Control Unit: a fixed table of entries (8 or 16
// ordinary plus one local-request and one remote-request nonblocking slot)
// and the logic reacting to thread requests and protocol messages.
type lcu struct {
	d    *Device
	core int

	// entries is the table in search order: nOrd ordinary slots, the
	// local-request nonblocking slot (reserved for local thread requests),
	// the remote-request one (reserved for servicing remote releases),
	// then allocations beyond the architected table. The paper leaves the
	// owner-reallocation-on-full corner unspecified; we allow it and count
	// it (Stats.ForcedAllocs) rather than deadlock.
	entries []*entry
	nOrd    int
}

func newLCU(d *Device, core, nOrdinary int) *lcu {
	u := &lcu{d: d, core: core, nOrd: nOrdinary}
	u.entries = make([]*entry, nOrdinary, nOrdinary+2)
	for i := range u.entries {
		u.entries[i] = &entry{class: ClassOrdinary}
	}
	u.entries = append(u.entries, &entry{class: ClassLocal}, &entry{class: ClassRemote})
	return u
}

// ordinary returns the architected ordinary slots.
func (u *lcu) ordinary() []*entry { return u.entries[:u.nOrd] }

// find returns the entry for (addr, tid), or nil.
func (u *lcu) find(addr memmodel.Addr, tid uint64) *entry {
	for _, e := range u.entries {
		if e.status != StatusFree && e.addr == addr && e.tid == tid {
			return e
		}
	}
	return nil
}

// allocLocal allocates an entry for a local thread request: an ordinary
// slot if one is free, else the local-request nonblocking slot.
func (u *lcu) allocLocal() *entry {
	for _, e := range u.ordinary() {
		if e.status == StatusFree {
			return e
		}
	}
	// Reclaim a saved (FLT) entry lazily: start its deferred release so a
	// slot frees up soon, but fail this allocation attempt.
	for _, e := range u.ordinary() {
		if e.status == StatusSaved {
			u.releaseSaved(e)
			break
		}
	}
	if local := u.entries[u.nOrd]; local.status == StatusFree {
		return local
	}
	return nil
}

// allocService allocates an entry to service a release or an owner
// re-allocation: ordinary, else the remote-request slot, else a forced
// overflow entry (counted; see Stats.ForcedAllocs).
func (u *lcu) allocService() *entry {
	for _, e := range u.entries {
		if e.class != ClassLocal && e.status == StatusFree {
			return e
		}
	}
	u.d.Stats.ForcedAllocs++
	e := &entry{class: ClassOrdinary}
	u.entries = append(u.entries, e)
	return e
}

// savedCount returns the number of FLT-saved entries.
func (u *lcu) savedCount() int {
	n := 0
	for _, e := range u.ordinary() {
		if e.status == StatusSaved {
			n++
		}
	}
	return n
}

// releaseSaved converts an FLT-saved entry into a real release.
func (u *lcu) releaseSaved(e *entry) {
	e.status = StatusRel
	u.sendRelease(e, false, nodeRef{})
}

// ---------------------------------------------------------------------------
// Thread-facing operations (the acq / rel ISA primitives).

// acquire implements acq. It returns true once the lock is held.
func (u *lcu) acquire(p *sim.Proc, tid uint64, addr memmodel.Addr, write bool) bool {
	d := u.d
	e := u.find(addr, tid)
	if e == nil {
		u.acquireIssue(tid, addr, write)
		return false
	}

	switch e.status {
	case StatusRcv:
		if e.write != write {
			// The thread changed its mind between retries (e.g. trylock R
			// then lock W). The pending entry must drain first.
			return false
		}
		e.status = StatusAcq
		e.timerSeq++ // cancel grant timer
		if e.overflow || (e.head && !e.next.valid && e.viaLRT) {
			// Uncontended (or overflow-mode) acquisition: drop the entry to
			// free the slot; the LRT still records the lock (Section III-A).
			e.reset()
		}
		return true
	case StatusRdRel:
		// Re-acquire in read mode while holding position in the queue
		// (Section III-B).
		if write {
			return false
		}
		e.status = StatusAcq
		return true
	case StatusSaved:
		// FLT hit: the lock was retained locally by a previous release.
		if e.tid == tid {
			d.Stats.FLTHits++
			e.write = write
			e.status = StatusAcq
			return true
		}
		return false
	default:
		// ISSUED, WAIT, ACQ, REL: nothing to do; keep iterating.
		return false
	}
}

// acquireIssue allocates an entry and sends the REQUEST without consuming
// a grant — the issue half of acquire, and all of Enq.
func (u *lcu) acquireIssue(tid uint64, addr memmodel.Addr, write bool) {
	d := u.d
	e := u.allocLocal()
	if e == nil {
		return // table exhausted; software retries
	}
	e.addr, e.tid, e.write = addr, tid, write
	e.status = StatusIssued
	e.nb = e.class != ClassOrdinary
	d.Stats.Requests++
	d.rec(obs.CoreNode(u.core), obs.KReq, addr, tid, flagBits(write, e.nb))
	d.coreToLRT(u.core, msg{kind: msgReq, addr: addr, node: u.ref(e), nb: e.nb})
}

// release implements rel. It returns true once the release is under way.
func (u *lcu) release(p *sim.Proc, tid uint64, addr memmodel.Addr, write bool) bool {
	d := u.d
	e := u.find(addr, tid)
	if e == nil {
		// Uncontended-acquired (entry was dropped) or the owner migrated
		// here: re-allocate and send RELEASE to the LRT (Section III-A/C).
		// With the FLT enabled, retain the lock locally instead (only into
		// a genuinely free ordinary slot; never force-allocate for bias).
		if d.Opt.FLTSize > 0 && u.savedCount() < d.Opt.FLTSize {
			for _, fe := range u.ordinary() {
				if fe.status == StatusFree {
					fe.addr, fe.tid, fe.write = addr, tid, write
					fe.status = StatusSaved
					fe.head = true
					return true
				}
			}
		}
		e = u.allocService()
		e.addr, e.tid, e.write = addr, tid, write
		e.status = StatusRel
		e.head = true
		d.Stats.RemoteReleases++
		u.sendRelease(e, false, nodeRef{})
		return true
	}

	switch e.status {
	case StatusAcq:
		if write || e.head {
			if e.next.valid {
				u.transferLock(e)
				return true
			}
			// No known successor.
			if d.Opt.FLTSize > 0 && !e.overflow && u.savedCount() < d.Opt.FLTSize {
				e.status = StatusSaved
				return true
			}
			e.status = StatusRel
			u.sendRelease(e, false, nodeRef{})
			return true
		}
		// Intermediate reader: hold position until the Head token passes
		// (Section III-B). No messages.
		e.status = StatusRdRel
		return true
	default:
		// Releasing something not held (or already releasing): incorrectly
		// synchronized program, or a retry of a rel that already succeeded.
		return false
	}
}

// transferLock hands the lock held by e directly to e.next (Figure 5).
func (u *lcu) transferLock(e *entry) {
	d := u.d
	d.Stats.DirectXfers++
	d.rec(obs.CoreNode(u.core), obs.KXfer, e.addr, e.tid, e.next.tid)
	if o := d.obsCap(); o != nil {
		o.TransferStart(uint64(d.M.K.Now()), uint64(e.addr))
	}
	e.status = StatusRel
	u.passHead(e, e.next, u.ref(e))
}

// passHead sends the Head token for e's lock to node to, naming prev as
// the previous head for the LRT to acknowledge.
func (u *lcu) passHead(e *entry, to, prev nodeRef) {
	u.d.coreToCore(u.core, to.lcu, msg{kind: msgGrant, addr: e.addr, tid: to.tid,
		head: true, xfer: e.xfer + 1, prev: prev})
}

// shareRead sends a (non-head) read grant for e's lock to node to.
func (u *lcu) shareRead(e *entry, to nodeRef) {
	u.d.coreToCore(u.core, to.lcu, msg{kind: msgGrant, addr: e.addr, tid: to.tid, xfer: e.xfer})
}

// ref returns e's queue node.
func (u *lcu) ref(e *entry) nodeRef {
	return nodeRef{valid: true, tid: e.tid, lcu: u.core, write: e.write}
}

// ---------------------------------------------------------------------------
// Protocol message handlers.

// onGrant receives a lock grant, a reader share-grant, or the Head token.
func (u *lcu) onGrant(g msg) {
	d := u.d
	e := u.find(g.addr, g.tid)
	if e == nil {
		// The target entry vanished. The only legal path here is a stale
		// head token racing entry teardown; surface it loudly in sim.
		panic(fmt.Sprintf("core: GRANT for missing entry t%d %#x at lcu%d", g.tid, g.addr, u.core))
	}
	if g.xfer > e.xfer {
		e.xfer = g.xfer
	}
	d.Stats.Grants++
	if g.overflow {
		d.Stats.OverflowGrants++
	}
	d.rec(obs.CoreNode(u.core), obs.KGrant, g.addr, g.tid, flagBits(g.head, g.overflow, g.fromLRT))
	if o := d.obsCap(); o != nil {
		now := uint64(d.M.K.Now())
		o.TransferEnd(now, uint64(g.addr))
		o.WaitEnd(now, g.tid)
	}

	switch e.status {
	case StatusIssued, StatusWait:
		e.status = StatusRcv
		e.overflow = g.overflow
		e.viaLRT = g.fromLRT
		if g.head {
			e.head = true
			if !g.fromLRT {
				u.notifyHead(e, g.prev)
			}
		}
		// A reader holding a grant propagates it to a following reader
		// (Section III-B).
		if !e.write && e.next.valid && !e.next.write {
			u.shareRead(e, e.next)
		}
		u.armGrantTimer(e)
		d.wakeWaiter(e)
	case StatusRcv, StatusAcq:
		// Head token arriving at an entry that already holds the lock.
		if g.head && !e.head {
			e.head = true
			u.notifyHead(e, g.prev)
		}
	case StatusRdRel:
		if !g.head {
			return
		}
		// Bypass: the released intermediate reader forwards the token and
		// frees its entry (Section III-B).
		d.Stats.HeadBypass++
		if e.next.valid {
			u.passHead(e, e.next, g.prev)
			e.reset()
			return
		}
		// Tail of a fully-drained read queue: release at the LRT on behalf
		// of the original head releaser.
		e.status = StatusRel
		e.head = true
		u.sendRelease(e, true, g.prev)
	case StatusRel, StatusSaved:
		// Possible if a token chases a release; the release path already
		// owns the hand-off. Nothing to do.
	}
}

// onWait acknowledges that the entry is enqueued.
func (u *lcu) onWait(m msg) {
	e := u.find(m.addr, m.tid)
	if e != nil && e.status == StatusIssued {
		e.status = StatusWait
		u.d.Stats.Waits++
		u.d.rec(obs.CoreNode(u.core), obs.KEnq, m.addr, m.tid, 0)
		if o := u.d.obsCap(); o != nil {
			o.WaitStart(uint64(u.d.M.K.Now()), m.tid)
		}
	}
}

// onRetryReq handles a RETRY to a request: the entry is freed and the
// software re-issues (with backoff).
func (u *lcu) onRetryReq(m msg) {
	e := u.find(m.addr, m.tid)
	if e == nil || e.status != StatusIssued {
		return
	}
	u.d.Stats.Retries++
	u.d.rec(obs.CoreNode(u.core), obs.KRetry, m.addr, m.tid, 0)
	w := e.waiter
	e.reset()
	if w != nil && w.Blocked() {
		w.Wake(0)
	}
}

// onFwdRequest handles the enqueue of m.node forwarded by the LRT to the
// (previous) queue tail m.tid (Figure 4b/4c).
func (u *lcu) onFwdRequest(m msg) {
	d := u.d
	req := m.node
	d.rec(obs.CoreNode(u.core), obs.KFwdReq, m.addr, req.tid, m.tid)
	e := u.find(m.addr, m.tid)
	if e == nil {
		// Case (b): the uncontended owner dropped its entry at acquisition;
		// re-allocate it with the information sent by the LRT.
		e = u.allocService()
		e.addr, e.tid, e.write = m.addr, m.tid, m.write
		e.status = StatusAcq
		e.head = m.head
		e.xfer = m.xfer
	}
	if m.xfer > e.xfer {
		e.xfer = m.xfer
	}

	switch e.status {
	case StatusRel, StatusSaved:
		// The lock was released while the request was in flight (the RETRY
		// race of Section III-A), or is logically free here in the FLT:
		// hand it straight to the requestor.
		e.status = StatusRel
		d.Stats.DirectXfers++
		u.passHead(e, req, u.ref(e))
	default:
		e.next = req
		// A tail holding (or sharing) the lock in read mode lets a reader
		// requestor in immediately (Section III-B).
		holdsRead := !e.write && (e.status == StatusAcq || e.status == StatusRcv || e.status == StatusRdRel)
		if holdsRead && !req.write {
			u.shareRead(e, req)
			return
		}
		d.coreToCore(u.core, req.lcu, msg{kind: msgWait, addr: m.addr, tid: req.tid})
	}
}

// onFwdRelease handles the release of m.node forwarded by the LRT on
// behalf of a migrated owner (Section III-C). m.tid names the queue node
// at this LCU to inspect; if the releaser's hold is not here, the message
// follows the queue.
func (u *lcu) onFwdRelease(m msg) {
	d := u.d
	rel := m.node
	d.Stats.FwdReleases++
	d.rec(obs.CoreNode(u.core), obs.KFwdRel, m.addr, rel.tid, m.tid)
	// Only an entry in ACQ is the thread's actual hold. A same-tid entry in
	// RCV is a migration duplicate whose grant the timer will pass through
	// (Section III-C); consuming it here would orphan the real hold.
	if e := u.find(m.addr, rel.tid); e != nil && e.status == StatusAcq {
		// Found the owner's original entry: release as if local.
		u.releaseHeld(e)
		// Acknowledge the remote releaser so its temporary entry clears.
		d.coreToCore(u.core, rel.lcu, msg{kind: msgRelDone, addr: m.addr, tid: rel.tid})
		return
	}
	// Not here: follow the queue from the named search node.
	s := u.find(m.addr, m.tid)
	if s == nil || !s.next.valid {
		// Queue edge raced away; bounce back to the LRT for a fresh look.
		d.coreToLRT(u.core, msg{kind: msgRel, addr: m.addr, node: rel})
		return
	}
	m.tid = s.next.tid
	d.coreToCore(u.core, s.next.lcu, m)
}

// onRelDone finalizes a release: the LRT (or a servicing LCU) confirmed
// that the queue head moved on or the lock is free.
func (u *lcu) onRelDone(m msg) {
	e := u.find(m.addr, m.tid)
	u.d.rec(obs.CoreNode(u.core), obs.KRelDone, m.addr, m.tid, 0)
	if e != nil && e.status == StatusRel {
		w := e.waiter
		e.reset()
		if w != nil && w.Blocked() {
			w.Wake(0)
		}
	}
}

// ---------------------------------------------------------------------------
// Grant timer (Section III-C): a lock granted to an entry whose thread
// never takes it (suspended, migrated, or an expired trylock) is forwarded
// onward after a threshold, preventing starvation and deadlock.

func (u *lcu) armGrantTimer(e *entry) {
	d := u.d
	e.timerSeq++
	d.armTimer(d.M.P.GrantTimeout, msg{kind: msgGrantTimer, to: int32(u.core),
		addr: e.addr, tid: e.tid, seq: e.timerSeq, ent: e})
}

// onGrantTimer fires a grant timer armed for entry m.ent at generation
// m.seq. It is stale unless the entry still serves (m.addr, m.tid),
// unacquired, in that generation. reset restarts timerSeq, so a generation
// alone does not name an arming: the entry's identity is part of the check.
func (u *lcu) onGrantTimer(m msg) {
	e := m.ent
	if u.find(m.addr, m.tid) != e || e.timerSeq != m.seq || e.status != StatusRcv {
		return
	}
	u.d.Stats.GrantTimeouts++
	u.d.rec(obs.CoreNode(u.core), obs.KTimeout, m.addr, m.tid, 0)
	u.timeoutEntry(e)
}

// timeoutEntry passes a timed-out grant along, as if the absent thread had
// acquired and instantly released.
func (u *lcu) timeoutEntry(e *entry) {
	if e.overflow {
		// Overflow-mode readers are not queue members: give the grant back
		// to the LRT so its reader count drains (Section III-D).
		e.status = StatusRel
		u.sendRelease(e, false, nodeRef{})
		return
	}
	u.releaseHeld(e)
}

// releaseHeld releases e's hold as its thread would: a writer or the head
// hands the lock to its successor or returns it to the LRT; an
// intermediate reader holds its position until the Head token passes
// (Section III-B).
func (u *lcu) releaseHeld(e *entry) {
	switch {
	case !e.write && !e.head:
		e.status = StatusRdRel
	case e.next.valid:
		u.transferLock(e)
	default:
		e.status = StatusRel
		u.sendRelease(e, false, nodeRef{})
	}
}

// sendRelease emits e's RELEASE to the LRT. drain marks the tail of a
// fully-drained read queue releasing on behalf of the original head prev.
func (u *lcu) sendRelease(e *entry, drain bool, prev nodeRef) {
	d := u.d
	d.rec(obs.CoreNode(u.core), obs.KRel, e.addr, e.tid, flagBits(e.write, drain))
	if o := d.obsCap(); o != nil {
		o.TransferStart(uint64(d.M.K.Now()), uint64(e.addr))
	}
	d.coreToLRT(u.core, msg{kind: msgRel, addr: e.addr, node: u.ref(e), drain: drain, prev: prev})
}

// notifyHead tells the LRT that e is the new queue head, so the head
// pointer stays valid and the previous holder can deallocate (Figure 5:
// the notification is off the critical path).
func (u *lcu) notifyHead(e *entry, prev nodeRef) {
	u.d.coreToLRT(u.core, msg{kind: msgHeadNotify, addr: e.addr, node: u.ref(e), xfer: e.xfer, prev: prev})
}

// flagBits packs booleans into a record's aux field, bit i = flags[i].
func flagBits(flags ...bool) uint64 {
	var v uint64
	for i, f := range flags {
		if f {
			v |= 1 << uint(i)
		}
	}
	return v
}
