package core

import (
	"fairrw/internal/memmodel"
	"fairrw/internal/sim"
)

// pageSize is the virtual-memory page granularity of InvalidatePage.
const pageSize = 4096

// InvalidatePage implements the OS support of Section III-F: before a
// virtual page with taken locks is paged out, the OS invalidates every
// lock queue for addresses in the page. Queue entries are removed; the
// current holder shifts to uncontended mode (only the LRT records it), and
// active readers along a queue are converted to overflow readers so their
// releases still reconcile at the LRT. Waiting requestors are RETRYed —
// their software loops re-issue the request, which will fault the page
// back in.
//
// It is invoked by the (simulated) OS, not by threads, and models the TLB-
// shootdown handler's lock work; the OS charges its own execution cost.
func (d *Device) InvalidatePage(pageAddr memmodel.Addr) (invalidated int) {
	base := pageAddr &^ (pageSize - 1)
	inPage := func(a memmodel.Addr) bool { return a >= base && a < base+pageSize }

	for _, u := range d.lcus {
		for _, e := range u.entries {
			if e.status == StatusFree || !inPage(e.addr) {
				continue
			}
			invalidated++
			switch e.status {
			case StatusAcq, StatusRcv:
				// Holder (or holder-to-be): becomes an uncontended /
				// overflow holder recorded only at the LRT.
				l := d.homeLRT(e.addr)
				if ent := l.peek(e.addr); ent != nil {
					if !e.write && !sameRef(ent.head, u.ref(e)) {
						// Reader mid-queue: record as overflow reader.
						ent.readerCnt++
					} else {
						// Head/owner: collapse the queue to just the owner.
						ent.head = u.ref(e)
						ent.tail = ent.head
						ent.granted = true
					}
				}
				e.reset()
			case StatusIssued, StatusWait:
				// Waiting requestor: drop the entry; software re-issues.
				w := e.waiter
				e.reset()
				if w != nil && w.Blocked() {
					w.Wake(0)
				}
			case StatusRdRel, StatusRel, StatusSaved:
				e.reset()
			}
		}
	}

	// Fix up LRT queue state: any entry in the page whose queue nodes were
	// just removed keeps only its holder bookkeeping. Each entry is
	// mutated on its own, so the overflow map's order cannot leak out.
	for _, l := range d.lrts {
		l.each(func(ent *lrtEntry) {
			if inPage(ent.addr) && ent.head.valid {
				ent.tail = ent.head
				ent.waitingWriters = 0
				ent.resv = nodeRef{}
			}
		})
	}
	return invalidated
}

// Enq implements the optional Enqueue primitive of footnote 1: a lock
// prefetch. It joins the queue for addr (exactly like acq) but does not
// acquire; a later acq finds the grant already local. Useful ahead of a
// critical section whose lock address is known early.
func (d *Device) Enq(p *sim.Proc, core int, tid uint64, addr memmodel.Addr, write bool) {
	p.Wait(d.M.P.LCULat)
	u := d.lcus[core]
	if u.find(addr, tid) != nil {
		return // already requested/held
	}
	u.acquireIssue(tid, addr, write)
}
