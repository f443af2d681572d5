// Package ssb implements the Synchronization State Buffer baseline (Zhu et
// al., ISCA'07) as characterized in the paper's Sections II and IV-A: a
// dedicated lock table at each home memory controller supporting fine-grain
// reader-writer locks. All operations are remote (request/reply round
// trips), there is no requestor queue — contenders poll remotely with
// backoff — and readers are preferred, so writers can starve and the retry
// traffic saturates scarce inter-chip links (Figure 9b).
package ssb

import (
	"fairrw/internal/machine"
	"fairrw/internal/memmodel"
	"fairrw/internal/obs"
	"fairrw/internal/sim"
	"fairrw/internal/topo"
)

const (
	// bankEntries bounds each home controller's table.
	bankEntries = 512
	// backoff is the remote retry interval after a NACK, in cycles.
	backoff sim.Time = 100
	// bankLat is the SSB lookup latency at the controller, in cycles.
	bankLat sim.Time = 6
)

// Stats counts SSB protocol events.
type Stats struct {
	Requests  uint64
	Grants    uint64
	Nacks     uint64
	Releases  uint64
	TableFull uint64
}

// bankEntry is the table state of one lock, stored by value in the bank's
// map so allocating and freeing an entry costs no heap object.
type bankEntry struct {
	writeHeld bool
	ownerTid  uint64
	readers   int
}

type bank struct {
	entries map[memmodel.Addr]bankEntry
	cap     int
}

// pendingOp is one in-flight remote operation, stored by value in the
// device's slab so issuing one allocates nothing at steady state.
type pendingOp struct {
	p     *sim.Proc // Acq: the requester, blocked until the reply
	addr  memmodel.Addr
	tid   uint64
	core  int
	home  int
	rel   bool // release (no reply) rather than acquire
	write bool
	ok    bool // Acq outcome, decided at the bank
	done  bool // Acq reply delivered
}

// Stages of an operation's journey, carried in the low bits of the
// delivery tag so every event of one operation shares its slab slot.
const (
	stageArrive = iota // request reached the home controller
	stageBank          // bank lookup latency elapsed: run the operation
	stageReply         // Acq reply reached the requesting core
	stageBits   = 2
	stageMask   = 1<<stageBits - 1
)

// Device is the SSB lock unit; it implements machine.LockDevice and
// receives its own messages as a sim.Receiver.
type Device struct {
	M     *machine.Machine
	banks []*bank

	// ops holds the in-flight operations; freeOps lists its vacant slots.
	// The slab grows only until it covers the peak number in flight.
	ops     []pendingOp
	freeOps []int32

	attempt map[uint64]uint64 // per-thread retry counter for jitter

	Stats Stats
}

// New builds the SSB device for m and installs it as the lock device.
func New(m *machine.Machine) *Device {
	d := &Device{M: m, attempt: make(map[uint64]uint64)}
	d.banks = make([]*bank, m.P.NumMem)
	for i := range d.banks {
		d.banks[i] = &bank{entries: make(map[memmodel.Addr]bankEntry), cap: bankEntries}
	}
	m.Lock = d
	return d
}

// send parks op in a slab slot and sends its request to the home
// controller, returning the slot.
func (d *Device) send(op pendingOp) int32 {
	var slot int32
	if n := len(d.freeOps); n > 0 {
		slot = d.freeOps[n-1]
		d.freeOps = d.freeOps[:n-1]
		d.ops[slot] = op
	} else {
		d.ops = append(d.ops, op)
		slot = int32(len(d.ops) - 1)
	}
	d.M.Net.SendTo(topo.Core(op.core), topo.Mem(op.home), d, uint64(slot)<<stageBits|stageArrive)
	return slot
}

func (d *Device) free(slot int32) {
	d.ops[slot] = pendingOp{}
	d.freeOps = append(d.freeOps, slot)
}

// Recv implements sim.Receiver: it advances the operation in the tagged
// slot by one stage. An acquire's slot is freed by Acq once the requester
// has read the outcome; a release's when it has run at the bank.
func (d *Device) Recv(tag uint64) {
	slot := int32(tag >> stageBits)
	op := &d.ops[slot]
	switch tag & stageMask {
	case stageArrive:
		d.M.K.ScheduleRecv(bankLat, d, uint64(slot)<<stageBits|stageBank)
	case stageBank:
		if op.rel {
			d.release(op)
			d.free(slot)
			return
		}
		op.ok = d.acquire(op)
		d.M.Net.SendTo(topo.Mem(op.home), topo.Core(op.core), d, uint64(slot)<<stageBits|stageReply)
	case stageReply:
		op.done = true
		if op.p.Blocked() {
			op.p.Wake(0)
		}
	}
}

// rec records one protocol event when the machine has tracing attached.
func (d *Device) rec(node int32, k obs.Kind, addr memmodel.Addr, tid, aux uint64) {
	if o := d.M.Obs; o != nil {
		o.Rec(uint64(d.M.K.Now()), node, k, uint64(addr), tid, aux)
	}
}

func writeBit(write bool) uint64 {
	if write {
		return 1
	}
	return 0
}

// acquire runs an acquire at its home bank and reports whether it was
// granted.
func (d *Device) acquire(op *pendingOp) bool {
	d.rec(obs.LRTNode(op.home), obs.KLRTReq, op.addr, op.tid, writeBit(op.write))
	b := d.banks[op.home]
	e, present := b.entries[op.addr]
	if !present && len(b.entries) >= b.cap {
		d.Stats.TableFull++
		return false
	}
	if op.write {
		if e.writeHeld || e.readers > 0 {
			return false
		}
		e.writeHeld = true
		e.ownerTid = op.tid
	} else {
		// Reader preference: join whenever no writer holds (even if writers
		// are retrying — the SSB keeps no queue to know about them).
		if e.writeHeld {
			return false
		}
		e.readers++
	}
	b.entries[op.addr] = e
	return true
}

// release runs a release at its home bank.
func (d *Device) release(op *pendingOp) {
	d.rec(obs.LRTNode(op.home), obs.KLRTRel, op.addr, op.tid, writeBit(op.write))
	b := d.banks[op.home]
	e, present := b.entries[op.addr]
	if !present {
		return // idempotent
	}
	if op.write {
		e.writeHeld = false
	} else if e.readers > 0 {
		e.readers--
	}
	if !e.writeHeld && e.readers == 0 {
		delete(b.entries, op.addr)
	} else {
		b.entries[op.addr] = e
	}
}

// Acq requests the lock: one full remote round trip per attempt. The
// request travels to addr's home controller, runs there after the bank
// latency, and the reply returns; the calling proc blocks throughout.
func (d *Device) Acq(p *sim.Proc, core int, tid uint64, addr memmodel.Addr, write bool) bool {
	d.Stats.Requests++
	w := writeBit(write)
	d.rec(obs.CoreNode(core), obs.KReq, addr, tid, w)
	slot := d.send(pendingOp{p: p, addr: addr, tid: tid, core: core,
		home: d.M.Mem.HomeOf(addr), write: write})
	for !d.ops[slot].done {
		p.Block()
	}
	granted := d.ops[slot].ok
	d.free(slot)
	if granted {
		d.Stats.Grants++
		d.rec(obs.CoreNode(core), obs.KGrant, addr, tid, w)
		if o := d.M.Obs; o != nil {
			now := uint64(d.M.K.Now())
			o.TransferEnd(now, uint64(addr))
			o.WaitEnd(now, tid)
		}
	} else {
		d.Stats.Nacks++
		d.rec(obs.CoreNode(core), obs.KNack, addr, tid, w)
		if o := d.M.Obs; o != nil {
			o.WaitStart(uint64(d.M.K.Now()), tid)
		}
	}
	return granted
}

// Rel releases the lock. The release message is fire-and-forget: the
// thread does not wait for an acknowledgement (the SSB needs none), so
// only the one-way latency sits on the hand-off critical path.
func (d *Device) Rel(p *sim.Proc, core int, tid uint64, addr memmodel.Addr, write bool) bool {
	d.Stats.Releases++
	d.rec(obs.CoreNode(core), obs.KRel, addr, tid, writeBit(write))
	if o := d.M.Obs; o != nil {
		o.TransferStart(uint64(d.M.K.Now()), uint64(addr))
	}
	d.send(pendingOp{addr: addr, tid: tid, core: core,
		home: d.M.Mem.HomeOf(addr), rel: true, write: write})
	p.Wait(d.M.P.LCULat) // local issue cost
	return true
}

// WaitEvent is the NACK backoff: the SSB keeps no local state to spin on,
// so contenders simply wait and re-poll remotely. A deterministic
// per-thread, per-attempt jitter decorrelates the pollers; without it the
// deterministic simulator phase-locks them and one contender can lose
// every round indefinitely, which real-system timing noise prevents.
func (d *Device) WaitEvent(p *sim.Proc, core int, tid uint64, addr memmodel.Addr, timeout sim.Time) {
	b := backoff
	if timeout != 0 && timeout < b {
		b = timeout
	}
	d.attempt[tid]++
	h := (tid*2654435761 + d.attempt[tid]*40503) % uint64(b)
	p.Wait(b/2 + sim.Time(h))
}
