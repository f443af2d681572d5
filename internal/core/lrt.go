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

// lrt is one Lock Reservation Table: a set-associative hardware table
// backed by a hash table in main memory for overflow (Section III-E).
type lrt struct {
	d     *Device
	index int
	assoc int
	sets  [][]*lrtEntry
	// spare holds removed entries for create to reuse.
	spare   []*lrtEntry
	resvSeq uint64 // last reservation-timer generation handed out

	// ovf is the memory overflow table: entries displaced from their set.
	// It is created by the first eviction, so a run that never evicts
	// allocates nothing for it.
	ovf   map[memmodel.Addr]*lrtEntry
	clock uint64
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

// each calls f for every entry, resident or overflowed (OS-level
// operations only, never on the protocol path; overflow order is the
// map's).
func (l *lrt) each(f func(e *lrtEntry)) {
	for _, set := range l.sets {
		for _, e := range set {
			f(e)
		}
	}
	for _, e := range l.ovf {
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
	if len(l.ovf) == 0 {
		return nil, 0
	}
	// The overflow flag is set: the memory table must be consulted.
	extra = l.d.M.P.MemLat
	e := l.ovf[addr]
	if e == nil {
		return nil, extra
	}
	delete(l.ovf, addr)
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
	return l.ovf[addr]
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
	if l.ovf == nil {
		l.ovf = make(map[memmodel.Addr]*lrtEntry)
	}
	l.ovf[victim.addr] = victim
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
	if e := l.ovf[addr]; e != nil {
		delete(l.ovf, addr)
		l.spare = append(l.spare, e)
		l.d.Stats.LRTDeletes++
	}
}

// ---------------------------------------------------------------------------
// Message handlers.

// onRequest processes a lock REQUEST (Section III-A cases a/b/c, plus the
// nonblocking/overflow paths of Section III-D).
func (l *lrt) onRequest(m msg) {
	d := l.d
	req := m.node
	d.rec(obs.LRTNode(l.index), obs.KLRTReq, m.addr, req.tid, flagBits(req.write, m.nb))
	ent, extra := l.lookup(m.addr)

	if ent == nil {
		// Case (a): the address is not locked. Allocate and grant.
		ent, ex2 := l.create(m.addr)
		ent.head, ent.tail = req, req
		l.grantHead(ent, extra+ex2, 0)
		return
	}

	// Reservation gate: while a reservation is pending, only the holder's
	// iterative requests are served (Section III-D).
	if ent.resv.valid {
		if sameRef(ent.resv, req) && ent.free() {
			ent.resv = nodeRef{}
			ent.head, ent.tail = req, req
			d.Stats.ResvGrants++
			l.grantHead(ent, extra, 1)
			return
		}
		l.retryReq(extra, m)
		return
	}

	if m.nb {
		// Nonblocking entries may take free locks (handled above) or join
		// active readers in overflow mode; anything else is RETRYed.
		readHeld := (ent.head.valid && ent.granted && !ent.head.write && ent.waitingWriters == 0) ||
			(!ent.head.valid && ent.readerCnt > 0)
		if readHeld && !req.write {
			ent.readerCnt++
			d.rec(obs.LRTNode(l.index), obs.KLRTGrant, m.addr, req.tid, 2)
			l.reply(extra, req.lcu, msg{kind: msgGrant, addr: m.addr, tid: req.tid,
				overflow: true, xfer: ent.xfer, fromLRT: true})
			return
		}
		if ent.free() {
			ent.head, ent.tail = req, req
			l.grantHead(ent, extra, 0)
			return
		}
		if !ent.resv.valid {
			ent.resv = req
			d.Stats.Reservations++
			l.armResvTimer(ent)
		}
		l.retryReq(extra, m)
		return
	}

	if !ent.head.valid {
		// No queue: the lock is free (lingering entry) or held only by
		// overflow readers.
		ent.head, ent.tail = req, req
		if ent.readerCnt == 0 || !req.write {
			l.grantHead(ent, extra, 0)
			return
		}
		// A writer must wait for the overflow readers to drain.
		ent.granted = false
		ent.waitingWriters++
		l.tell(extra, msgWait, m.addr, req)
		return
	}

	// Cases (b)/(c): append to the queue and forward to the previous tail.
	oldTail := ent.tail
	ent.tail = req
	if req.write {
		ent.waitingWriters++
	}
	d.rec(obs.LRTNode(l.index), obs.KFwdReq, m.addr, req.tid, oldTail.tid)
	l.reply(extra, oldTail.lcu, msg{kind: msgFwdReq, addr: m.addr, node: req,
		tid: oldTail.tid, write: oldTail.write, head: sameRef(oldTail, ent.head), xfer: ent.xfer})
}

// grantHead grants ent's lock to its queue head straight from the LRT.
// how is the record's grant path: 0 a free lock, 1 a reservation.
func (l *lrt) grantHead(ent *lrtEntry, extra sim.Time, how uint64) {
	ent.granted = true
	l.d.rec(obs.LRTNode(l.index), obs.KLRTGrant, ent.addr, ent.head.tid, how)
	l.reply(extra, ent.head.lcu, msg{kind: msgGrant, addr: ent.addr, tid: ent.head.tid,
		head: true, xfer: ent.xfer, fromLRT: true})
}

// tell sends n the reply kind about addr.
func (l *lrt) tell(extra sim.Time, kind msgKind, addr memmodel.Addr, n nodeRef) {
	l.reply(extra, n.lcu, msg{kind: kind, addr: addr, tid: n.tid})
}

func (l *lrt) retryReq(extra sim.Time, m msg) {
	l.d.rec(obs.LRTNode(l.index), obs.KRetry, m.addr, m.node.tid, 0)
	l.tell(extra, msgRetryReq, m.addr, m.node)
}

// onRelease processes a RELEASE (Sections III-A, III-B, III-C, III-D).
func (l *lrt) onRelease(m msg) {
	d := l.d
	rel := m.node
	d.rec(obs.LRTNode(l.index), obs.KLRTRel, m.addr, rel.tid, flagBits(rel.write, m.drain))
	ent, extra := l.lookup(m.addr)

	if ent == nil {
		// Double release or release racing entry teardown: ack idempotently.
		l.tell(extra, msgRelDone, m.addr, rel)
		return
	}

	if m.drain {
		// The tail of a fully-drained read queue releases on behalf of the
		// original head (Section III-B).
		if m.prev.valid {
			l.tell(extra, msgRelDone, m.addr, m.prev)
		}
		if sameRef(ent.tail, rel) {
			l.finishHeadRelease(ent, extra, rel)
			return
		}
		// A requestor was appended behind the drained tail; the forwarded
		// request will collect the lock from the releaser's REL entry.
		ent.head = rel
		ent.granted = true
		l.tell(extra, msgRetryRel, m.addr, rel)
		return
	}

	if ent.head.valid && ent.head.tid == rel.tid {
		if ent.head.lcu == rel.lcu || sameRef(ent.tail, ent.head) {
			// Normal (or migrated-but-uncontended) head release.
			if sameRef(ent.tail, ent.head) {
				l.finishHeadRelease(ent, extra, rel)
				return
			}
			// A queue exists: a FWD_REQUEST is racing towards the releaser;
			// tell it to hand the lock over on arrival (Section III-A).
			l.tell(extra, msgRetryRel, m.addr, rel)
			return
		}
		// Migrated owner with a queue: forward the release to the head node.
		l.reply(extra, ent.head.lcu, msg{kind: msgFwdRel, addr: m.addr, node: rel, tid: ent.head.tid})
		return
	}

	if ent.readerCnt > 0 {
		// Overflow reader release (Section III-D).
		ent.readerCnt--
		l.tell(extra, msgRelDone, m.addr, rel)
		if ent.readerCnt == 0 && ent.head.valid && !ent.granted {
			if ent.head.write && ent.waitingWriters > 0 {
				ent.waitingWriters--
			}
			l.grantHead(ent, extra, 0)
		}
		return
	}

	if ent.head.valid {
		// Migrated reader (not the head): search the queue (Section III-C).
		l.reply(extra, ent.head.lcu, msg{kind: msgFwdRel, addr: m.addr, node: rel, tid: ent.head.tid})
		return
	}

	// Nothing matches: spurious release; ack to unwedge the LCU.
	l.tell(extra, msgRelDone, m.addr, rel)
}

// finishHeadRelease completes a release by the (sole) queue node rel: the
// lock becomes free, remains with overflow readers, or the entry is
// deleted.
func (l *lrt) finishHeadRelease(ent *lrtEntry, extra sim.Time, rel nodeRef) {
	addr := ent.addr
	if ent.readerCnt > 0 || ent.resv.valid {
		// Overflow readers still hold the lock, or the entry stays so the
		// reservation holder finds the lock free.
		ent.head, ent.tail = nodeRef{}, nodeRef{}
		ent.granted = false
	} else {
		l.remove(addr)
	}
	l.tell(extra, msgRelDone, addr, rel)
}

// onHeadNotify updates the head pointer after a direct transfer and
// acknowledges the previous holder (Figure 5).
func (l *lrt) onHeadNotify(m msg) {
	d := l.d
	d.rec(obs.LRTNode(l.index), obs.KLRTHead, m.addr, m.node.tid, m.xfer)
	ent, extra := l.lookup(m.addr)
	if ent != nil && m.xfer > ent.xfer {
		ent.xfer = m.xfer
		ent.head = m.node
		ent.granted = true
		if m.node.write && ent.waitingWriters > 0 {
			ent.waitingWriters--
		}
	}
	if m.prev.valid {
		l.tell(extra, msgRelDone, m.addr, m.prev)
	}
}

// armResvTimer bounds a reservation's lifetime (e.g. the holder's trylock
// expired and it will never re-request). The generation is drawn from a
// per-LRT counter, so it names this arming on this entry even after the
// entry has been recycled.
func (l *lrt) armResvTimer(ent *lrtEntry) {
	l.resvSeq++
	ent.resvSeq = l.resvSeq
	l.d.armTimer(resvTimeout, msg{kind: msgResvTimer, to: int32(l.index),
		addr: ent.addr, seq: ent.resvSeq})
}

// onResvTimer drops the reservation armed at generation m.seq, if it is
// still the one pending on m.addr.
func (l *lrt) onResvTimer(m msg) {
	ent := l.peek(m.addr)
	if ent == nil || ent.resvSeq != m.seq || !ent.resv.valid {
		return
	}
	ent.resv = nodeRef{}
	if ent.free() {
		l.remove(m.addr)
	}
}
