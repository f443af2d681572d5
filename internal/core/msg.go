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
	msgReq        msgKind = iota // reqMsg        → LRT
	msgRel                       // relMsg        → LRT
	msgHeadNotify                // headNotifyMsg → LRT
	msgGrant                     // grantMsg      → LCU
	msgFwdReq                    // fwdReqMsg     → LCU
	msgFwdRel                    // fwdRelMsg     → LCU
	msgWait                      // (addr, tid)   → LCU
	msgRetryReq                  // (addr, tid)   → LCU
	msgRelDone                   // (addr, tid)   → LCU
	msgRetryRel                  // (addr, tid)   → LCU
	msgGrantTimer                // LCU grant timer (Section III-C)
	msgResvTimer                 // LRT reservation timer (Section III-D)
)

// devMsg is one in-flight protocol message, stored by value in the
// device's slab so sending allocates nothing at steady state. It is a
// union over the typed message structs; the field-to-message mapping
// lives in the msgOf* constructors and unpack below.
type devMsg struct {
	kind msgKind
	to   int32 // destination LRT index or LCU core

	addr memmodel.Addr
	tid  uint64  // tid / fwdReq targetTid
	aux  uint64  // xfer / lrtXfer / fwdRel searchTid / timer generation
	refA nodeRef // req / grant prev / headNotify newHead / rel origHead
	refB nodeRef // headNotify prev
	lcu  int32   // rel lcu / fwdRel replyLCU
	w    bool    // write / fwdReq targetWrite
	b1   bool    // req nb / rel headDrain / grant head / fwdReq targetIsHead
	b2   bool    // grant overflow
	b3   bool    // grant fromLRT
	ent  *entry  // grant timer: the armed entry
}

func msgOfReq(m reqMsg) devMsg {
	return devMsg{kind: msgReq, addr: m.addr, refA: m.req, b1: m.nb}
}

func msgOfRel(m relMsg) devMsg {
	return devMsg{kind: msgRel, addr: m.addr, tid: m.tid, lcu: int32(m.lcu),
		w: m.write, b1: m.headDrain, refA: m.origHead}
}

func msgOfHeadNotify(m headNotifyMsg) devMsg {
	return devMsg{kind: msgHeadNotify, addr: m.addr, refA: m.newHead, aux: m.xfer, refB: m.prev}
}

func msgOfGrant(m grantMsg) devMsg {
	return devMsg{kind: msgGrant, addr: m.addr, tid: m.tid, b1: m.head,
		b2: m.overflow, aux: m.xfer, refA: m.prev, b3: m.fromLRT}
}

func msgOfFwdReq(m fwdReqMsg) devMsg {
	return devMsg{kind: msgFwdReq, addr: m.addr, refA: m.req, tid: m.targetTid,
		w: m.targetWrite, b1: m.targetIsHead, aux: m.lrtXfer}
}

func msgOfFwdRel(m fwdRelMsg) devMsg {
	return devMsg{kind: msgFwdRel, addr: m.addr, tid: m.tid, w: m.write,
		lcu: int32(m.replyLCU), aux: m.searchTid}
}

func msgSimple(kind msgKind, addr memmodel.Addr, tid uint64) devMsg {
	return devMsg{kind: kind, addr: addr, tid: tid}
}

// allocMsg parks m in a slab slot and returns the slot index. Slots come
// from a free list; the slab only grows until it covers the peak number of
// in-flight messages, after which sending allocates nothing.
func (d *Device) allocMsg(m devMsg) int32 {
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
func (d *Device) coreToLRT(fromCore int, m devMsg) {
	l := d.homeLRT(m.addr)
	m.to = int32(l.index)
	d.M.Net.SendTo(topo.Core(fromCore), topo.Mem(l.index), d, uint64(d.allocMsg(m))<<1)
}

// lrtToCore sends m from an LRT to an LCU.
func (d *Device) lrtToCore(fromLRT, toCore int, m devMsg) {
	m.to = int32(toCore)
	d.M.Net.SendTo(topo.Mem(fromLRT), topo.Core(toCore), d, uint64(d.allocMsg(m))<<1)
}

// coreToCore sends m from one LCU to another.
func (d *Device) coreToCore(fromCore, toCore int, m devMsg) {
	m.to = int32(toCore)
	d.M.Net.SendTo(topo.Core(fromCore), topo.Core(toCore), d, uint64(d.allocMsg(m))<<1)
}

// armTimer delivers m to its own unit after delay: one event, no network
// and no pipeline stage.
func (d *Device) armTimer(delay sim.Time, m devMsg) {
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
	d.msgs[slot] = devMsg{}
	d.freeMsgs = append(d.freeMsgs, slot)
	d.dispatch(m)
}

// dispatch unpacks m and invokes the destination unit's handler.
func (d *Device) dispatch(m devMsg) {
	switch m.kind {
	case msgReq:
		d.lrts[m.to].onRequest(reqMsg{addr: m.addr, req: m.refA, nb: m.b1})
	case msgRel:
		d.lrts[m.to].onRelease(relMsg{addr: m.addr, tid: m.tid, lcu: int(m.lcu),
			write: m.w, headDrain: m.b1, origHead: m.refA})
	case msgHeadNotify:
		d.lrts[m.to].onHeadNotify(headNotifyMsg{addr: m.addr, newHead: m.refA, xfer: m.aux, prev: m.refB})
	case msgGrant:
		d.lcus[m.to].onGrant(grantMsg{addr: m.addr, tid: m.tid, head: m.b1,
			overflow: m.b2, xfer: m.aux, prev: m.refA, fromLRT: m.b3})
	case msgFwdReq:
		d.lcus[m.to].onFwdRequest(fwdReqMsg{addr: m.addr, req: m.refA, targetTid: m.tid,
			targetWrite: m.w, targetIsHead: m.b1, lrtXfer: m.aux})
	case msgFwdRel:
		d.lcus[m.to].onFwdRelease(fwdRelMsg{addr: m.addr, tid: m.tid, write: m.w,
			replyLCU: int(m.lcu), searchTid: m.aux})
	case msgWait:
		d.lcus[m.to].onWait(m.addr, m.tid)
	case msgRetryReq:
		d.lcus[m.to].onRetryReq(m.addr, m.tid)
	case msgRelDone:
		d.lcus[m.to].onRelDone(m.addr, m.tid)
	case msgRetryRel:
		d.lcus[m.to].onRetryRel(m.addr, m.tid)
	case msgGrantTimer:
		d.lcus[m.to].onGrantTimer(m.ent, m.addr, m.tid, m.aux)
	case msgResvTimer:
		d.lrts[m.to].onResvTimer(m.addr, m.aux)
	}
}

// reply sends m to an LCU once the extra (overflow-handling) latency has
// elapsed. The zero-latency common case sends immediately; the overflow
// case is the one remaining closure on the message path, and it is rare
// by construction (Stats.LRTOverflowHits counts it).
func (l *lrt) reply(extra sim.Time, toCore int, m devMsg) {
	if extra == 0 {
		l.d.lrtToCore(l.index, toCore, m)
		return
	}
	d := l.d
	idx := l.index
	d.M.K.Schedule(extra, func() { d.lrtToCore(idx, toCore, m) })
}
