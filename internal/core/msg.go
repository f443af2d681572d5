package core

import (
	"fairrw/internal/memmodel"
	"fairrw/internal/sim"
	"fairrw/internal/topo"
)

// msgKind discriminates the protocol messages travelling between LCUs and
// LRTs. Kinds up to and including msgHeadNotify are LRT-bound; the rest
// are LCU-bound — the split selects the second-stage pipeline latency.
// The two timer kinds never travel: a unit arms them on itself.
type msgKind uint8

const (
	msgReq        msgKind = iota // REQUEST: node asks for the lock      → LRT
	msgRel                       // RELEASE: node releases it            → LRT
	msgHeadNotify                // node became the queue head (Fig. 5)  → LRT
	msgGrant                     // lock, read share or Head token for tid → LCU
	msgFwdReq                    // enqueue of node behind tail tid      → LCU
	msgFwdRel                    // node's release, searching from tid   → LCU
	msgWait                      // tid is enqueued                      → LCU
	msgRetryReq                  // tid's request must be re-issued      → LCU
	msgRelDone                   // tid's release is complete            → LCU
	msgRetryRel                  // tid's release waits for a FWD_REQ    → LCU
	msgGrantTimer                // LCU grant timer (Section III-C)
	msgResvTimer                 // LRT reservation timer (Section III-D)
)

// msg is one protocol message. Senders build it and handlers take it; in
// flight it sits by value in the device's slab, so sending allocates
// nothing at steady state. A field means the same thing in every kind
// that carries it.
type msg struct {
	kind msgKind
	to   int32 // destination LRT index or LCU core

	addr memmodel.Addr
	// tid names the receiving LCU's entry the message is about: the
	// grantee, the enqueued or retried thread, FWD_REQ's old tail,
	// FWD_REL's next queue node to search, a grant timer's thread.
	tid uint64
	// node is the sender's queue node: the requestor (REQ, FWD_REQ), the
	// releaser (REL, FWD_REL) or the new head (HEAD_NOTIFY).
	node nodeRef
	// prev is the previous head, whose release the LRT acknowledges
	// (GRANT and HEAD_NOTIFY after a transfer, a draining REL).
	prev nodeRef
	xfer uint64 // head-transfer count (GRANT, HEAD_NOTIFY, FWD_REQ)
	seq  uint64 // timer generation
	ent  *entry // grant timer: the armed entry

	write    bool // FWD_REQ: the old tail holds in write mode
	head     bool // GRANT: carries the Head token; FWD_REQ: the old tail is the head
	nb       bool // REQ: from a nonblocking entry, must not join a queue
	drain    bool // REL: a drained read queue's tail releases for the head
	overflow bool // GRANT: an LRT overflow-mode read grant (Section III-D)
	fromLRT  bool // GRANT: straight from the LRT, no head notification
}

// allocMsg parks m in a slab slot and returns the slot index. Slots come
// from a free list; the slab only grows until it covers the peak number of
// in-flight messages, after which sending allocates nothing.
func (d *Device) allocMsg(m msg) int32 {
	if n := len(d.freeMsgs); n > 0 {
		slot := d.freeMsgs[n-1]
		d.freeMsgs = d.freeMsgs[:n-1]
		d.msgs[slot] = m
		return slot
	}
	d.msgs = append(d.msgs, m)
	return int32(len(d.msgs) - 1)
}

// Message delivery is two-staged, like the closure version it replaces:
// the network schedules arrival, and arrival re-arms the same slot for the
// receiving unit's pipeline latency. The stage lives in the tag's low bit
// so both events share the slot.

// coreToLRT sends m from a core to addr's home LRT.
func (d *Device) coreToLRT(fromCore int, m msg) {
	l := d.homeLRT(m.addr)
	m.to = int32(l.index)
	d.M.Net.SendTo(topo.Core(fromCore), topo.Mem(l.index), d, uint64(d.allocMsg(m))<<1)
}

// lrtToCore sends m from an LRT to an LCU.
func (d *Device) lrtToCore(fromLRT, toCore int, m msg) {
	m.to = int32(toCore)
	d.M.Net.SendTo(topo.Mem(fromLRT), topo.Core(toCore), d, uint64(d.allocMsg(m))<<1)
}

// coreToCore sends m from one LCU to another.
func (d *Device) coreToCore(fromCore, toCore int, m msg) {
	m.to = int32(toCore)
	d.M.Net.SendTo(topo.Core(fromCore), topo.Core(toCore), d, uint64(d.allocMsg(m))<<1)
}

// armTimer delivers m to its own unit after delay: one event, no network
// and no pipeline stage.
func (d *Device) armTimer(delay sim.Time, m msg) {
	d.M.K.ScheduleRecv(delay, d, uint64(d.allocMsg(m))<<1|1)
}

// Recv implements sim.Receiver. Stage 0 (tag bit clear) is network
// arrival: charge the receiving unit's pipeline latency by re-arming the
// slot. Stage 1 frees the slot and dispatches to the protocol handler.
func (d *Device) Recv(tag uint64) {
	slot := int32(tag >> 1)
	if tag&1 == 0 {
		lat := d.M.P.LCULat
		if d.msgs[slot].kind <= msgHeadNotify {
			lat = d.M.P.LRTLat
		}
		d.M.K.ScheduleRecv(lat, d, tag|1)
		return
	}
	m := d.msgs[slot]
	d.msgs[slot] = msg{}
	d.freeMsgs = append(d.freeMsgs, slot)
	d.dispatch(m)
}

// dispatch hands m to the destination unit's handler.
func (d *Device) dispatch(m msg) {
	switch m.kind {
	case msgReq:
		d.lrts[m.to].onRequest(m)
	case msgRel:
		d.lrts[m.to].onRelease(m)
	case msgHeadNotify:
		d.lrts[m.to].onHeadNotify(m)
	case msgGrant:
		d.lcus[m.to].onGrant(m)
	case msgFwdReq:
		d.lcus[m.to].onFwdRequest(m)
	case msgFwdRel:
		d.lcus[m.to].onFwdRelease(m)
	case msgWait:
		d.lcus[m.to].onWait(m)
	case msgRetryReq:
		d.lcus[m.to].onRetryReq(m)
	case msgRelDone:
		d.lcus[m.to].onRelDone(m)
	case msgRetryRel:
		// The entry stays in REL; the imminent FWD_REQ collects the lock
		// (Section III-A).
	case msgGrantTimer:
		d.lcus[m.to].onGrantTimer(m)
	case msgResvTimer:
		d.lrts[m.to].onResvTimer(m)
	}
}

// reply sends m to an LCU once the extra (overflow-handling) latency has
// elapsed. The zero-latency common case sends immediately; the overflow
// case is the one remaining closure on the message path, and it is rare
// by construction (Stats.LRTOverflowHits counts it).
func (l *lrt) reply(extra sim.Time, toCore int, m msg) {
	if extra == 0 {
		l.d.lrtToCore(l.index, toCore, m)
		return
	}
	d := l.d
	idx := l.index
	d.M.K.Schedule(extra, func() { d.lrtToCore(idx, toCore, m) })
}
