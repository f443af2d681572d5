package core

import (
	"fairrw/internal/memmodel"
	"fairrw/internal/obs"
	"fairrw/internal/sim"
)

// lrtEntry tracks one locked address (Figure 3, right).
type lrtEntry struct {
	addr memmodel.Addr

	head    nodeRef // current (or last known) queue head
	tail    nodeRef // last enqueued requestor
	granted bool    // the head has been granted the lock

	readerCnt      int // overflow-mode readers currently holding the lock
	waitingWriters int // enqueued writers not yet granted

	xfer uint64 // highest observed head-transfer count

	resv    nodeRef // reservation for a starving nonblocking requestor
	resvSeq uint64  // generation of the pending reservation timer

	lastUse uint64
}

func sameRef(a, b nodeRef) bool {
	return a.valid && b.valid && a.tid == b.tid && a.lcu == b.lcu
}

// free reports whether no thread holds or waits for the lock.
func (e *lrtEntry) free() bool {
	return !e.head.valid && e.readerCnt == 0
}

// lrtOvfPage holds the memory overflow-table slots for one page's words.
type lrtOvfPage [memmodel.PageWords]*lrtEntry

// lrt is one Lock Reservation Table: a set-associative hardware table
// backed by a table in main memory for overflow (Section III-E).
//
// The overflow table is paged like the backing store: displaced entries
// for word-aligned heap addresses land in a slot table indexed by page and
// word, so the (rare) overflow path still does no hashing; addresses
// outside the simulated heap fall back to a sparse map.
type lrt struct {
	d     *Device
	index int
	assoc int
	sets  [][]*lrtEntry
	// spare holds removed entries for create to reuse.
	spare   []*lrtEntry
	resvSeq uint64 // last reservation-timer generation handed out

	ovfPages  []*lrtOvfPage               // indexed by PageOf(addr)
	ovfSparse map[memmodel.Addr]*lrtEntry // unaligned / out-of-heap
	ovfCount  int
	clock     uint64
}

func newLRT(d *Device, index, entries, assoc int) *lrt {
	nsets := entries / assoc
	if nsets == 0 {
		nsets = 1
	}
	l := &lrt{d: d, index: index, assoc: assoc}
	l.sets = make([][]*lrtEntry, nsets)
	return l
}

// ovfSlot returns the paged overflow slot for addr, materializing the page
// when grow is set. It returns nil for addresses the page table cannot
// index (unaligned or beyond the simulated heap).
func (l *lrt) ovfSlot(addr memmodel.Addr, grow bool) **lrtEntry {
	if addr&7 != 0 || addr >= l.d.M.Mem.Brk() {
		return nil
	}
	pi := memmodel.PageOf(addr)
	if pi >= uint64(len(l.ovfPages)) {
		if !grow {
			return nil
		}
		l.ovfPages = append(l.ovfPages, make([]*lrtOvfPage, int(pi)+1-len(l.ovfPages))...)
	}
	p := l.ovfPages[pi]
	if p == nil {
		if !grow {
			return nil
		}
		p = new(lrtOvfPage)
		l.ovfPages[pi] = p
	}
	return &p[(addr>>3)&(memmodel.PageWords-1)]
}

// ovfPut records a displaced entry in the memory overflow table.
func (l *lrt) ovfPut(e *lrtEntry) {
	if s := l.ovfSlot(e.addr, true); s != nil {
		if *s == nil {
			l.ovfCount++
		}
		*s = e
		return
	}
	if l.ovfSparse == nil {
		l.ovfSparse = make(map[memmodel.Addr]*lrtEntry)
	}
	if _, ok := l.ovfSparse[e.addr]; !ok {
		l.ovfCount++
	}
	l.ovfSparse[e.addr] = e
}

// ovfPeek returns the overflow entry for addr, or nil. The sparse map is
// consulted even when a paged slot exists but is empty: the heap may have
// grown past an address that was out-of-heap when its entry was displaced.
func (l *lrt) ovfPeek(addr memmodel.Addr) *lrtEntry {
	if s := l.ovfSlot(addr, false); s != nil && *s != nil {
		return *s
	}
	return l.ovfSparse[addr]
}

// ovfDel removes and returns the overflow entry for addr, or nil. It looks
// where ovfPeek looks, in the same order.
func (l *lrt) ovfDel(addr memmodel.Addr) *lrtEntry {
	if s := l.ovfSlot(addr, false); s != nil && *s != nil {
		e := *s
		*s = nil
		l.ovfCount--
		return e
	}
	e := l.ovfSparse[addr]
	if e != nil {
		delete(l.ovfSparse, addr)
		l.ovfCount--
	}
	return e
}

// ovfEach calls f for every overflow entry (page-walk order; used only by
// OS-level operations, never on the protocol path).
func (l *lrt) ovfEach(f func(e *lrtEntry)) {
	if l.ovfCount == 0 {
		return
	}
	for _, p := range l.ovfPages {
		if p == nil {
			continue
		}
		for _, e := range p {
			if e != nil {
				f(e)
			}
		}
	}
	for _, e := range l.ovfSparse {
		f(e)
	}
}

func (l *lrt) setIdx(addr memmodel.Addr) int {
	h := (addr >> memmodel.LineShift) * 0x9e3779b97f4a7c15
	return int(h % uint64(len(l.sets)))
}

// lookup finds the entry for addr, swapping it in from the memory overflow
// table if needed. extra is the added memory latency of overflow handling.
func (l *lrt) lookup(addr memmodel.Addr) (ent *lrtEntry, extra sim.Time) {
	si := l.setIdx(addr)
	for _, e := range l.sets[si] {
		if e.addr == addr {
			l.clock++
			e.lastUse = l.clock
			return e, 0
		}
	}
	if l.ovfCount == 0 {
		return nil, 0
	}
	// The overflow flag is set: the memory table must be consulted.
	extra = l.d.M.P.MemLat
	e := l.ovfDel(addr)
	if e == nil {
		return nil, extra
	}
	l.d.Stats.LRTOverflowHits++
	extra += l.place(e)
	return e, extra
}

// peek returns the current entry for addr without cost or LRU effects.
func (l *lrt) peek(addr memmodel.Addr) *lrtEntry {
	for _, e := range l.sets[l.setIdx(addr)] {
		if e.addr == addr {
			return e
		}
	}
	return l.ovfPeek(addr)
}

// place inserts e into its set, evicting the LRU victim to memory if the
// set is full. It returns the added memory latency.
func (l *lrt) place(e *lrtEntry) sim.Time {
	si := l.setIdx(e.addr)
	l.clock++
	e.lastUse = l.clock
	if len(l.sets[si]) < l.assoc {
		l.sets[si] = append(l.sets[si], e)
		return 0
	}
	lru := 0
	for i := 1; i < len(l.sets[si]); i++ {
		if l.sets[si][i].lastUse < l.sets[si][lru].lastUse {
			lru = i
		}
	}
	victim := l.sets[si][lru]
	l.sets[si][lru] = e
	l.ovfPut(victim)
	l.d.Stats.LRTEvictions++
	return l.d.M.P.MemLat
}

// create allocates a fresh entry for addr, reusing a removed one if any.
func (l *lrt) create(addr memmodel.Addr) (*lrtEntry, sim.Time) {
	var e *lrtEntry
	if n := len(l.spare); n > 0 {
		e, l.spare = l.spare[n-1], l.spare[:n-1]
		*e = lrtEntry{addr: addr}
	} else {
		e = &lrtEntry{addr: addr}
	}
	l.d.Stats.LRTCreates++
	return e, l.place(e)
}

// remove deletes the entry for addr wherever it lives.
func (l *lrt) remove(addr memmodel.Addr) {
	si := l.setIdx(addr)
	for i, e := range l.sets[si] {
		if e.addr == addr {
			l.sets[si] = append(l.sets[si][:i], l.sets[si][i+1:]...)
			l.spare = append(l.spare, e)
			l.d.Stats.LRTDeletes++
			return
		}
	}
	if e := l.ovfDel(addr); e != nil {
		l.spare = append(l.spare, e)
		l.d.Stats.LRTDeletes++
	}
}

// ---------------------------------------------------------------------------
// Message handlers.

// onRequest processes a lock REQUEST (Section III-A cases a/b/c, plus the
// nonblocking/overflow paths of Section III-D).
func (l *lrt) onRequest(m reqMsg) {
	d := l.d
	d.rec(obs.LRTNode(l.index), obs.KLRTReq, m.addr, m.req.tid, flagBits(m.req.write, m.nb))
	ent, extra := l.lookup(m.addr)

	if ent == nil {
		// Case (a): the address is not locked. Allocate and grant.
		ent, ex2 := l.create(m.addr)
		extra += ex2
		ent.head, ent.tail = m.req, m.req
		ent.granted = true
		g := grantMsg{addr: m.addr, tid: m.req.tid, head: true, xfer: ent.xfer, fromLRT: true}
		d.rec(obs.LRTNode(l.index), obs.KLRTGrant, m.addr, m.req.tid, 0)
		l.reply(extra, m.req.lcu, msgOfGrant(g))
		return
	}

	// Reservation gate: while a reservation is pending, only the holder's
	// iterative requests are served (Section III-D).
	if ent.resv.valid {
		if sameRef(ent.resv, m.req) {
			if ent.free() {
				ent.resv = nodeRef{}
				ent.head, ent.tail = m.req, m.req
				ent.granted = true
				d.Stats.ResvGrants++
				d.rec(obs.LRTNode(l.index), obs.KLRTGrant, m.addr, m.req.tid, 1)
				g := grantMsg{addr: m.addr, tid: m.req.tid, head: true, xfer: ent.xfer, fromLRT: true}
				l.reply(extra, m.req.lcu, msgOfGrant(g))
				return
			}
		}
		l.retryReq(extra, m)
		return
	}

	if m.nb {
		// Nonblocking entries may take free locks (handled above) or join
		// active readers in overflow mode; anything else is RETRYed.
		readHeld := (ent.head.valid && ent.granted && !ent.head.write && ent.waitingWriters == 0) ||
			(!ent.head.valid && ent.readerCnt > 0)
		if readHeld && !m.req.write {
			ent.readerCnt++
			d.rec(obs.LRTNode(l.index), obs.KLRTGrant, m.addr, m.req.tid, 2)
			g := grantMsg{addr: m.addr, tid: m.req.tid, overflow: true, xfer: ent.xfer, fromLRT: true}
			l.reply(extra, m.req.lcu, msgOfGrant(g))
			return
		}
		if ent.free() {
			ent.head, ent.tail = m.req, m.req
			ent.granted = true
			d.rec(obs.LRTNode(l.index), obs.KLRTGrant, m.addr, m.req.tid, 0)
			g := grantMsg{addr: m.addr, tid: m.req.tid, head: true, xfer: ent.xfer, fromLRT: true}
			l.reply(extra, m.req.lcu, msgOfGrant(g))
			return
		}
		if !ent.resv.valid {
			ent.resv = m.req
			d.Stats.Reservations++
			l.armResvTimer(ent)
		}
		l.retryReq(extra, m)
		return
	}

	if !ent.head.valid {
		// No queue: the lock is free (lingering entry) or held only by
		// overflow readers.
		ent.head, ent.tail = m.req, m.req
		if ent.readerCnt == 0 || !m.req.write {
			ent.granted = true
			d.rec(obs.LRTNode(l.index), obs.KLRTGrant, m.addr, m.req.tid, 0)
			g := grantMsg{addr: m.addr, tid: m.req.tid, head: true, xfer: ent.xfer, fromLRT: true}
			l.reply(extra, m.req.lcu, msgOfGrant(g))
			return
		}
		// A writer must wait for the overflow readers to drain.
		ent.granted = false
		ent.waitingWriters++
		l.reply(extra, m.req.lcu, msgSimple(msgWait, m.addr, m.req.tid))
		return
	}

	// Cases (b)/(c): append to the queue and forward to the previous tail.
	oldTail := ent.tail
	ent.tail = m.req
	if m.req.write {
		ent.waitingWriters++
	}
	fw := fwdReqMsg{
		addr: m.addr, req: m.req,
		targetTid: oldTail.tid, targetWrite: oldTail.write,
		targetIsHead: sameRef(oldTail, ent.head),
		lrtXfer:      ent.xfer,
	}
	d.rec(obs.LRTNode(l.index), obs.KFwdReq, m.addr, m.req.tid, oldTail.tid)
	l.reply(extra, oldTail.lcu, msgOfFwdReq(fw))
}

func (l *lrt) retryReq(extra sim.Time, m reqMsg) {
	l.d.rec(obs.LRTNode(l.index), obs.KRetry, m.addr, m.req.tid, 0)
	l.reply(extra, m.req.lcu, msgSimple(msgRetryReq, m.addr, m.req.tid))
}

// onRelease processes a RELEASE (Sections III-A, III-B, III-C, III-D).
func (l *lrt) onRelease(m relMsg) {
	d := l.d
	d.rec(obs.LRTNode(l.index), obs.KLRTRel, m.addr, m.tid, flagBits(m.write, m.headDrain))
	ent, extra := l.lookup(m.addr)
	ackTo := m.lcu
	tid := m.tid

	ack := func() {
		l.reply(extra, ackTo, msgSimple(msgRelDone, m.addr, tid))
	}

	if ent == nil {
		// Double release or release racing entry teardown: ack idempotently.
		ack()
		return
	}

	if m.headDrain {
		// The tail of a fully-drained read queue releases on behalf of the
		// original head (Section III-B).
		if m.origHead.valid {
			l.reply(extra, m.origHead.lcu, msgSimple(msgRelDone, m.addr, m.origHead.tid))
		}
		rel := nodeRef{valid: true, tid: m.tid, lcu: m.lcu, write: m.write}
		if sameRef(ent.tail, rel) {
			l.finishHeadRelease(ent, extra, m, ack)
			return
		}
		// A requestor was appended behind the drained tail; the forwarded
		// request will collect the lock from the releaser's REL entry.
		ent.head = rel
		ent.granted = true
		l.reply(extra, ackTo, msgSimple(msgRetryRel, m.addr, tid))
		return
	}

	if ent.head.valid && ent.head.tid == m.tid {
		if ent.head.lcu == m.lcu || sameRef(ent.tail, ent.head) {
			// Normal (or migrated-but-uncontended) head release.
			if sameRef(ent.tail, ent.head) {
				l.finishHeadRelease(ent, extra, m, ack)
				return
			}
			// A queue exists: a FWD_REQUEST is racing towards the releaser;
			// tell it to hand the lock over on arrival (Section III-A).
			l.reply(extra, ackTo, msgSimple(msgRetryRel, m.addr, tid))
			return
		}
		// Migrated owner with a queue: forward the release to the head node.
		fw := fwdRelMsg{addr: m.addr, tid: m.tid, write: m.write, replyLCU: m.lcu, searchTid: ent.head.tid}
		l.reply(extra, ent.head.lcu, msgOfFwdRel(fw))
		return
	}

	if ent.readerCnt > 0 {
		// Overflow reader release (Section III-D).
		ent.readerCnt--
		ack()
		if ent.readerCnt == 0 && ent.head.valid && !ent.granted {
			ent.granted = true
			if ent.head.write && ent.waitingWriters > 0 {
				ent.waitingWriters--
			}
			d.rec(obs.LRTNode(l.index), obs.KLRTGrant, m.addr, ent.head.tid, 0)
			g := grantMsg{addr: m.addr, tid: ent.head.tid, head: true, xfer: ent.xfer, fromLRT: true}
			l.reply(extra, ent.head.lcu, msgOfGrant(g))
		}
		return
	}

	if ent.head.valid {
		// Migrated reader (not the head): search the queue (Section III-C).
		fw := fwdRelMsg{addr: m.addr, tid: m.tid, write: m.write, replyLCU: m.lcu, searchTid: ent.head.tid}
		l.reply(extra, ent.head.lcu, msgOfFwdRel(fw))
		return
	}

	// Nothing matches: spurious release; ack to unwedge the LCU.
	ack()
}

// finishHeadRelease completes a release by the (sole) queue node: the lock
// becomes free, remains with overflow readers, or the entry is deleted.
func (l *lrt) finishHeadRelease(ent *lrtEntry, extra sim.Time, m relMsg, ack func()) {
	if ent.readerCnt > 0 {
		ent.head, ent.tail = nodeRef{}, nodeRef{}
		ent.granted = false
		ack()
		return
	}
	if ent.resv.valid {
		// Keep the entry so the reservation holder finds the lock free.
		ent.head, ent.tail = nodeRef{}, nodeRef{}
		ent.granted = false
		ack()
		return
	}
	l.remove(ent.addr)
	ack()
}

// onHeadNotify updates the head pointer after a direct transfer and
// acknowledges the previous holder (Figure 5).
func (l *lrt) onHeadNotify(m headNotifyMsg) {
	d := l.d
	d.rec(obs.LRTNode(l.index), obs.KLRTHead, m.addr, m.newHead.tid, m.xfer)
	ent, extra := l.lookup(m.addr)
	if ent != nil && m.xfer > ent.xfer {
		ent.xfer = m.xfer
		ent.head = m.newHead
		ent.granted = true
		if m.newHead.write && ent.waitingWriters > 0 {
			ent.waitingWriters--
		}
	}
	if m.prev.valid {
		l.reply(extra, m.prev.lcu, msgSimple(msgRelDone, m.addr, m.prev.tid))
	}
}

// armResvTimer bounds a reservation's lifetime (e.g. the holder's trylock
// expired and it will never re-request). The generation is drawn from a
// per-LRT counter, so it names this arming on this entry even after the
// entry has been recycled.
func (l *lrt) armResvTimer(ent *lrtEntry) {
	l.resvSeq++
	ent.resvSeq = l.resvSeq
	l.d.armTimer(l.d.Opt.ResvTimeout, devMsg{kind: msgResvTimer, to: int32(l.index),
		addr: ent.addr, aux: ent.resvSeq})
}

// onResvTimer drops the reservation armed at generation seq, if it is
// still the one pending on addr.
func (l *lrt) onResvTimer(addr memmodel.Addr, seq uint64) {
	ent := l.peek(addr)
	if ent == nil || ent.resvSeq != seq || !ent.resv.valid {
		return
	}
	ent.resv = nodeRef{}
	if ent.free() {
		l.remove(addr)
	}
}
