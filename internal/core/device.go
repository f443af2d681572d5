package core

import (
	"fairrw/internal/machine"
	"fairrw/internal/memmodel"
	"fairrw/internal/obs"
	"fairrw/internal/sim"
)

// Options tunes the device beyond the machine's Figure-8 parameters.
type Options struct {
	// FLTSize enables the Free Lock Table extension (Section IV-C) with
	// that many saved-lock slots per LCU. Zero disables it.
	FLTSize int
}

const (
	// resvTimeout bounds how long an LRT reservation may block other
	// requestors (Section III-D), in cycles.
	resvTimeout sim.Time = 20_000
	// retryBackoff is the software-visible delay between a RETRY and the
	// re-issued request, in LCU access latencies.
	retryBackoff = 4
)

// Stats counts protocol events, exposed to tests and benchmark harnesses.
type Stats struct {
	Requests       uint64 // REQUEST messages to LRTs
	Grants         uint64 // lock grants delivered (any kind)
	OverflowGrants uint64 // grants in LRT overflow mode (Section III-D)
	Waits          uint64 // WAIT replies (enqueued)
	Retries        uint64 // RETRY replies to requests
	DirectXfers    uint64 // direct LCU-to-LCU transfers
	HeadBypass     uint64 // head tokens bypassed over RD_REL entries
	GrantTimeouts  uint64 // grant-timer expirations (migrated/suspended)
	RemoteReleases uint64 // releases arriving with no allocated entry
	FwdReleases    uint64 // releases forwarded through the queue
	Reservations   uint64 // LRT reservations installed
	ResvGrants     uint64 // grants to reservation holders
	ForcedAllocs   uint64 // entry allocations beyond the hardware table
	FLTHits        uint64 // re-acquisitions served by a saved (FLT) entry

	LRTCreates      uint64
	LRTDeletes      uint64
	LRTEvictions    uint64 // entries displaced to the memory overflow table
	LRTOverflowHits uint64 // lookups served from the memory overflow table
}

// Device is the complete locking mechanism: one LCU per core plus one LRT
// per memory controller. It implements machine.LockDevice.
type Device struct {
	M    *machine.Machine
	Opt  Options
	lcus []*lcu
	lrts []*lrt

	// msgs is the in-flight protocol message slab (see msg.go); freeMsgs
	// lists its unused slots.
	msgs     []msg
	freeMsgs []int32

	Stats Stats
}

// New builds the device for m and installs it as the machine's lock device.
func New(m *machine.Machine, opt Options) *Device {
	d := &Device{M: m, Opt: opt}
	d.lcus = make([]*lcu, m.P.Cores)
	for i := range d.lcus {
		d.lcus[i] = newLCU(d, i, m.P.LCUOrdinary)
	}
	d.lrts = make([]*lrt, m.P.NumMem)
	for i := range d.lrts {
		d.lrts[i] = newLRT(d, i, m.P.LRTEntries, m.P.LRTAssoc)
	}
	m.Lock = d
	return d
}

// rec records one protocol event when the machine has tracing attached.
// The capture is read lazily off the machine so EnableObs may be called
// any time before Run.
func (d *Device) rec(node int32, k obs.Kind, addr memmodel.Addr, tid, aux uint64) {
	if o := d.M.Obs; o != nil {
		o.Rec(uint64(d.M.K.Now()), node, k, uint64(addr), tid, aux)
	}
}

// obsCap returns the machine's capture, or nil when tracing is off.
func (d *Device) obsCap() *obs.Capture { return d.M.Obs }

// homeLRT returns the LRT owning addr.
func (d *Device) homeLRT(addr memmodel.Addr) *lrt {
	return d.lrts[d.M.Mem.HomeOf(addr)]
}

// Acq implements the Acquire ISA primitive (Section III): non-blocking,
// returns true only once the lock is held by (tid) in the given mode.
func (d *Device) Acq(p *sim.Proc, core int, tid uint64, addr memmodel.Addr, write bool) bool {
	p.Wait(d.M.P.LCULat)
	return d.lcus[core].acquire(p, tid, addr, write)
}

// Rel implements the Release ISA primitive: non-blocking, returns true
// once the release has been initiated.
func (d *Device) Rel(p *sim.Proc, core int, tid uint64, addr memmodel.Addr, write bool) bool {
	p.Wait(d.M.P.LCULat)
	return d.lcus[core].release(p, tid, addr, write)
}

// WaitEvent parks p until the LCU entry for (tid, addr) changes state, or
// until timeout. With no entry present (a RETRY freed it), it applies the
// retry backoff instead.
func (d *Device) WaitEvent(p *sim.Proc, core int, tid uint64, addr memmodel.Addr, timeout sim.Time) {
	u := d.lcus[core]
	e := u.find(addr, tid)
	if e == nil {
		p.Wait(retryBackoff * d.M.P.LCULat)
		return
	}
	if e.status == StatusRcv || e.status == StatusRdRel {
		return // already actionable; let the caller retry acq immediately
	}
	e.waiter = p
	p.BlockTimeout(timeout)
	if e.waiter == p {
		e.waiter = nil
	}
}

// wakeWaiter unparks the thread spinning on e, if any.
func (d *Device) wakeWaiter(e *entry) {
	if e.waiter != nil && e.waiter.Blocked() {
		w := e.waiter
		e.waiter = nil
		w.Wake(0)
	}
}
