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

	ordinary []*entry
	local    *entry // nonblocking, reserved for local thread requests
	remote   *entry // nonblocking, reserved for servicing remote releases

	// forced holds allocations beyond the architected table. The paper
	// leaves the owner-reallocation-on-full corner unspecified; we allow
	// it and count it (Stats.ForcedAllocs) rather than deadlock.
	forced []*entry
}

func newLCU(d *Device, core, nOrdinary int) *lcu {
	u := &lcu{d: d, core: core}
	u.ordinary = make([]*entry, nOrdinary)
	for i := range u.ordinary {
		u.ordinary[i] = &entry{class: ClassOrdinary}
	}
	u.local = &entry{class: ClassLocal}
	u.remote = &entry{class: ClassRemote}
	return u
}

// find returns the entry for (addr, tid), or nil.
func (u *lcu) find(addr memmodel.Addr, tid uint64) *entry {
	for _, e := range u.ordinary {
		if e.status != StatusFree && e.addr == addr && e.tid == tid {
			return e
		}
	}
	if u.local.status != StatusFree && u.local.addr == addr && u.local.tid == tid {
		return u.local
	}
	if u.remote.status != StatusFree && u.remote.addr == addr && u.remote.tid == tid {
		return u.remote
	}
	for _, e := range u.forced {
		if e.status != StatusFree && e.addr == addr && e.tid == tid {
			return e
		}
	}
	return nil
}

// allocLocal allocates an entry for a local thread request: an ordinary
// slot if one is free, else the local-request nonblocking slot.
func (u *lcu) allocLocal() *entry {
	for _, e := range u.ordinary {
		if e.status == StatusFree {
			return e
		}
	}
	// Reclaim a saved (FLT) entry lazily: start its deferred release so a
	// slot frees up soon, but fail this allocation attempt.
	for _, e := range u.ordinary {
		if e.status == StatusSaved {
			u.releaseSaved(e)
			break
		}
	}
	if u.local.status == StatusFree {
		return u.local
	}
	return nil
}

// allocService allocates an entry to service a release or an owner
// re-allocation: ordinary, else the remote-request slot, else a forced
// overflow entry (counted; see Stats.ForcedAllocs).
func (u *lcu) allocService() *entry {
	for _, e := range u.ordinary {
		if e.status == StatusFree {
			return e
		}
	}
	if u.remote.status == StatusFree {
		return u.remote
	}
	for _, e := range u.forced {
		if e.status == StatusFree {
			return e
		}
	}
	u.d.Stats.ForcedAllocs++
	e := &entry{class: ClassOrdinary}
	u.forced = append(u.forced, e)
	return e
}

// savedCount returns the number of FLT-saved entries.
func (u *lcu) savedCount() int {
	n := 0
	for _, e := range u.ordinary {
		if e.status == StatusSaved {
			n++
		}
	}
	return n
}

// releaseSaved converts an FLT-saved entry into a real release.
func (u *lcu) releaseSaved(e *entry) {
	e.status = StatusRel
	u.d.sendRelease(u, e.tid, e.addr, e.write, false, nodeRef{})
}

// ---------------------------------------------------------------------------
// Thread-facing operations (the acq / rel ISA primitives).

// acquire implements acq. It returns true once the lock is held.
func (u *lcu) acquire(p *sim.Proc, tid uint64, addr memmodel.Addr, write bool) bool {
	d := u.d
	e := u.find(addr, tid)
	if e == nil {
		e = u.allocLocal()
		if e == nil {
			return false // table exhausted; software retries
		}
		e.addr, e.tid, e.write = addr, tid, write
		e.status = StatusIssued
		e.nb = e.class != ClassOrdinary
		d.Stats.Requests++
		d.rec(obs.CoreNode(u.core), obs.KReq, addr, tid, flagBits(write, e.nb))
		d.coreToLRT(u.core, msgOfReq(reqMsg{
			addr: addr, req: nodeRef{valid: true, tid: tid, lcu: u.core, write: write}, nb: e.nb}))
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
			for _, fe := range u.ordinary {
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
		d.sendRelease(u, tid, addr, write, false, nodeRef{})
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
			d.sendRelease(u, tid, addr, write, false, nodeRef{})
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
	g := grantMsg{
		addr: e.addr, tid: e.next.tid, head: true,
		xfer: e.xfer + 1,
		prev: nodeRef{valid: true, tid: e.tid, lcu: u.core, write: e.write},
	}
	d.rec(obs.CoreNode(u.core), obs.KXfer, e.addr, e.tid, e.next.tid)
	if o := d.obsCap(); o != nil {
		o.TransferStart(uint64(d.M.K.Now()), uint64(e.addr))
	}
	to := e.next.lcu
	e.status = StatusRel
	d.coreToCore(u.core, to, msgOfGrant(g))
}

// ---------------------------------------------------------------------------
// Protocol message handlers.

// onGrant receives a lock grant, a reader share-grant, or the Head token.
func (u *lcu) onGrant(g grantMsg) {
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
				d.notifyHead(u, e, g.prev)
			}
		}
		// A reader holding a grant propagates it to a following reader
		// (Section III-B).
		if !e.write && e.next.valid && !e.next.write {
			u.propagateReadGrant(e)
		}
		u.armGrantTimer(e)
		d.wakeWaiter(e)
	case StatusRcv, StatusAcq:
		// Head token arriving at an entry that already holds the lock.
		if g.head && !e.head {
			e.head = true
			d.notifyHead(u, e, g.prev)
		}
	case StatusRdRel:
		if !g.head {
			return
		}
		// Bypass: the released intermediate reader forwards the token and
		// frees its entry (Section III-B).
		d.Stats.HeadBypass++
		if e.next.valid {
			fw := grantMsg{addr: e.addr, tid: e.next.tid, head: true, xfer: e.xfer + 1, prev: g.prev}
			to := e.next.lcu
			e.reset()
			d.coreToCore(u.core, to, msgOfGrant(fw))
			return
		}
		// Tail of a fully-drained read queue: release at the LRT on behalf
		// of the original head releaser.
		e.status = StatusRel
		e.head = true
		d.sendRelease(u, e.tid, e.addr, e.write, true, g.prev)
	case StatusRel, StatusSaved:
		// Possible if a token chases a release; the release path already
		// owns the hand-off. Nothing to do.
	}
}

// propagateReadGrant forwards a (non-head) read grant down the queue.
func (u *lcu) propagateReadGrant(e *entry) {
	g := grantMsg{addr: e.addr, tid: e.next.tid, xfer: e.xfer}
	u.d.coreToCore(u.core, e.next.lcu, msgOfGrant(g))
}

// onWait acknowledges that the entry is enqueued.
func (u *lcu) onWait(addr memmodel.Addr, tid uint64) {
	e := u.find(addr, tid)
	if e != nil && e.status == StatusIssued {
		e.status = StatusWait
		u.d.Stats.Waits++
		u.d.rec(obs.CoreNode(u.core), obs.KEnq, addr, tid, 0)
		if o := u.d.obsCap(); o != nil {
			o.WaitStart(uint64(u.d.M.K.Now()), tid)
		}
	}
}

// onRetryReq handles a RETRY to a request: the entry is freed and the
// software re-issues (with backoff).
func (u *lcu) onRetryReq(addr memmodel.Addr, tid uint64) {
	e := u.find(addr, tid)
	if e == nil || e.status != StatusIssued {
		return
	}
	u.d.Stats.Retries++
	u.d.rec(obs.CoreNode(u.core), obs.KRetry, addr, tid, 0)
	w := e.waiter
	e.reset()
	if w != nil && w.Blocked() {
		w.Wake(0)
	}
}

// onFwdRequest handles an enqueue forwarded by the LRT to the (previous)
// queue tail (Figure 4b/4c).
func (u *lcu) onFwdRequest(m fwdReqMsg) {
	d := u.d
	d.rec(obs.CoreNode(u.core), obs.KFwdReq, m.addr, m.req.tid, m.targetTid)
	e := u.find(m.addr, m.targetTid)
	if e == nil {
		// Case (b): the uncontended owner dropped its entry at acquisition;
		// re-allocate it with the information sent by the LRT.
		e = u.allocService()
		e.addr, e.tid, e.write = m.addr, m.targetTid, m.targetWrite
		e.status = StatusAcq
		e.head = m.targetIsHead
		e.xfer = m.lrtXfer
	}
	if m.lrtXfer > e.xfer {
		e.xfer = m.lrtXfer
	}

	switch e.status {
	case StatusRel:
		// The lock was released while the request was in flight: hand it
		// straight to the requestor (the RETRY race of Section III-A).
		g := grantMsg{addr: e.addr, tid: m.req.tid, head: true, xfer: e.xfer + 1,
			prev: nodeRef{valid: true, tid: e.tid, lcu: u.core, write: e.write}}
		d.Stats.DirectXfers++
		d.coreToCore(u.core, m.req.lcu, msgOfGrant(g))
	case StatusSaved:
		// FLT: the lock is logically free here; grant it away.
		g := grantMsg{addr: e.addr, tid: m.req.tid, head: true, xfer: e.xfer + 1,
			prev: nodeRef{valid: true, tid: e.tid, lcu: u.core, write: e.write}}
		e.status = StatusRel
		d.Stats.DirectXfers++
		d.coreToCore(u.core, m.req.lcu, msgOfGrant(g))
	default:
		e.next = m.req
		// A tail holding (or sharing) the lock in read mode lets a reader
		// requestor in immediately (Section III-B).
		holdsRead := !e.write && (e.status == StatusAcq || e.status == StatusRcv || e.status == StatusRdRel)
		if holdsRead && !m.req.write {
			g := grantMsg{addr: e.addr, tid: m.req.tid, xfer: e.xfer}
			d.coreToCore(u.core, m.req.lcu, msgOfGrant(g))
			return
		}
		d.coreToCore(u.core, m.req.lcu, msgSimple(msgWait, m.addr, m.req.tid))
	}
}

// onFwdRelease handles a release forwarded by the LRT on behalf of a
// migrated owner (Section III-C). searchTid names the queue node at this
// LCU to inspect; if the target is not here, the message follows the queue.
func (u *lcu) onFwdRelease(m fwdRelMsg) {
	d := u.d
	d.Stats.FwdReleases++
	d.rec(obs.CoreNode(u.core), obs.KFwdRel, m.addr, m.tid, m.searchTid)
	// Only an entry in ACQ is the thread's actual hold. A same-tid entry in
	// RCV is a migration duplicate whose grant the timer will pass through
	// (Section III-C); consuming it here would orphan the real hold.
	if e := u.find(m.addr, m.tid); e != nil && e.status == StatusAcq {
		// Found the owner's original entry: release as if local.
		if e.write || e.head {
			if e.next.valid {
				u.transferLock(e)
			} else {
				e.status = StatusRel
				d.sendRelease(u, e.tid, e.addr, e.write, false, nodeRef{})
			}
		} else {
			e.status = StatusRdRel
		}
		// Acknowledge the remote releaser so its temporary entry clears.
		d.coreToCore(u.core, m.replyLCU, msgSimple(msgRelDone, m.addr, m.tid))
		return
	}
	// Not here: follow the queue from the named search node.
	s := u.find(m.addr, m.searchTid)
	if s == nil || !s.next.valid {
		// Queue edge raced away; bounce back to the LRT for a fresh look.
		d.coreToLRT(u.core, msgOfRel(relMsg{addr: m.addr, tid: m.tid, lcu: m.replyLCU, write: m.write}))
		return
	}
	nm := m
	nm.searchTid = s.next.tid
	d.coreToCore(u.core, s.next.lcu, msgOfFwdRel(nm))
}

// onRelDone finalizes a release: the LRT (or a servicing LCU) confirmed
// that the queue head moved on or the lock is free.
func (u *lcu) onRelDone(addr memmodel.Addr, tid uint64) {
	e := u.find(addr, tid)
	u.d.rec(obs.CoreNode(u.core), obs.KRelDone, addr, tid, 0)
	if e != nil && e.status == StatusRel {
		w := e.waiter
		e.reset()
		if w != nil && w.Blocked() {
			w.Wake(0)
		}
	}
}

// onRetryRel handles a RETRY to a RELEASE: a requestor was enqueued while
// the release was in flight. The entry stays in REL; the imminent
// FWD_REQUEST will collect the lock (Section III-A).
func (u *lcu) onRetryRel(addr memmodel.Addr, tid uint64) {
	// State already correct; the entry waits for the forwarded request.
}

// ---------------------------------------------------------------------------
// Grant timer (Section III-C): a lock granted to an entry whose thread
// never takes it (suspended, migrated, or an expired trylock) is forwarded
// onward after a threshold, preventing starvation and deadlock.

func (u *lcu) armGrantTimer(e *entry) {
	d := u.d
	e.timerSeq++
	d.armTimer(d.M.P.GrantTimeout, devMsg{kind: msgGrantTimer, to: int32(u.core),
		addr: e.addr, tid: e.tid, aux: e.timerSeq, ent: e})
}

// onGrantTimer fires a grant timer armed for entry e at generation seq. It
// is stale unless e still serves (addr, tid), unacquired, in that
// generation. reset restarts timerSeq, so a generation alone does not name
// an arming: the entry's identity is part of the check.
func (u *lcu) onGrantTimer(e *entry, addr memmodel.Addr, tid, seq uint64) {
	d := u.d
	if u.find(addr, tid) != e || e.timerSeq != seq || e.status != StatusRcv {
		return
	}
	d.Stats.GrantTimeouts++
	d.rec(obs.CoreNode(u.core), obs.KTimeout, addr, tid, 0)
	u.timeoutEntry(e)
}

// timeoutEntry passes a timed-out grant along, as if the absent thread had
// acquired and instantly released.
func (u *lcu) timeoutEntry(e *entry) {
	d := u.d
	if e.overflow {
		// Overflow-mode readers are not queue members: give the grant back
		// to the LRT so its reader count drains (Section III-D).
		e.status = StatusRel
		d.sendRelease(u, e.tid, e.addr, e.write, false, nodeRef{})
		return
	}
	if e.write || e.head {
		if e.next.valid {
			u.transferLock(e)
			return
		}
		e.status = StatusRel
		d.sendRelease(u, e.tid, e.addr, e.write, false, nodeRef{})
		return
	}
	// Non-head reader: it logically held a read share; fold it back as a
	// released intermediate so the head token will bypass it.
	e.status = StatusRdRel
}

// sendRelease emits a RELEASE to the LRT.
func (d *Device) sendRelease(u *lcu, tid uint64, addr memmodel.Addr, write, headDrain bool, origHead nodeRef) {
	d.rec(obs.CoreNode(u.core), obs.KRel, addr, tid, flagBits(write, headDrain))
	if o := d.obsCap(); o != nil {
		o.TransferStart(uint64(d.M.K.Now()), uint64(addr))
	}
	d.coreToLRT(u.core, msgOfRel(relMsg{
		addr: addr, tid: tid, lcu: u.core, write: write, headDrain: headDrain, origHead: origHead}))
}

// notifyHead tells the LRT that this entry is the new queue head, so the
// head pointer stays valid and the previous holder can deallocate
// (Figure 5: the notification is off the critical path).
func (d *Device) notifyHead(u *lcu, e *entry, prev nodeRef) {
	m := headNotifyMsg{
		addr:    e.addr,
		newHead: nodeRef{valid: true, tid: e.tid, lcu: u.core, write: e.write},
		xfer:    e.xfer,
		prev:    prev,
	}
	d.coreToLRT(u.core, msgOfHeadNotify(m))
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
