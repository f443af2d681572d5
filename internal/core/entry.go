// Package core implements the paper's contribution: the Lock Control Unit
// (LCU), a per-core hardware table that builds distributed reader-writer
// lock queues with direct LCU-to-LCU transfer, and the Lock Reservation
// Table (LRT), a per-memory-controller unit that allocates lock queues,
// tracks their head and tail, and handles overflow (Sections III-A..III-F).
//
// Locks are addressed by physical word address and associated with software
// thread-ids, decoupling them from cores so that thread migration,
// suspension and trylock aborts degrade gracefully instead of wedging the
// queue (Section III-C). Overflow of either structure preserves forward
// progress: LCUs reserve nonblocking entries, the LRT falls back to a
// memory-backed table, and a reservation mechanism prevents starvation of
// requestors that cannot join queues (Sections III-D, III-E).
package core

import (
	"fmt"

	"fairrw/internal/memmodel"
	"fairrw/internal/sim"
)

// Status is the state of an LCU entry (Figure 3).
type Status uint8

const (
	// StatusFree marks an unallocated table slot.
	StatusFree Status = iota
	// StatusIssued: request sent to the LRT, no reply yet.
	StatusIssued
	// StatusWait: enqueued behind another node, spinning locally.
	StatusWait
	// StatusRcv: lock grant received; the local thread has not taken it.
	StatusRcv
	// StatusAcq: lock taken by the local thread.
	StatusAcq
	// StatusRel: release in progress; the entry survives until the LRT
	// acknowledges (or until it hands the lock to a racing requestor).
	StatusRel
	// StatusRdRel: read lock released by an intermediate queue node; the
	// entry waits for the Head token to pass before deallocating, and the
	// local thread may re-acquire in read mode meanwhile (Section III-B).
	StatusRdRel
	// StatusSaved: FLT extension (Section IV-C): the lock is logically
	// free but retained by this LCU so the owning thread can re-acquire
	// without remote traffic.
	StatusSaved
)

func (s Status) String() string {
	switch s {
	case StatusFree:
		return "FREE"
	case StatusIssued:
		return "ISSUED"
	case StatusWait:
		return "WAIT"
	case StatusRcv:
		return "RCV"
	case StatusAcq:
		return "ACQ"
	case StatusRel:
		return "REL"
	case StatusRdRel:
		return "RD_REL"
	case StatusSaved:
		return "SAVED"
	}
	return fmt.Sprintf("Status(%d)", uint8(s))
}

// Class distinguishes ordinary LCU entries from the nonblocking ones that
// guarantee forward progress under table exhaustion (Section III-D).
type Class uint8

const (
	// ClassOrdinary entries may join queues.
	ClassOrdinary Class = iota
	// ClassLocal is the nonblocking entry reserved for local requests; it
	// may only take free locks or overflow-mode read grants.
	ClassLocal
	// ClassRemote is the nonblocking entry reserved for servicing releases
	// that arrive with no allocated entry (migrated or uncontended).
	ClassRemote
)

// nodeRef identifies a queue node: (threadid, LCUid, R/W mode).
type nodeRef struct {
	tid   uint64
	lcu   int
	valid bool
	write bool
}

func (n nodeRef) String() string {
	if !n.valid {
		return "-"
	}
	m := "R"
	if n.write {
		m = "W"
	}
	return fmt.Sprintf("t%d@lcu%d/%s", n.tid, n.lcu, m)
}

// entry is one LCU table slot (~20 bytes of architectural state in the
// paper's Figure 3).
type entry struct {
	class Class

	addr     memmodel.Addr
	tid      uint64
	write    bool
	status   Status
	head     bool
	overflow bool // granted in LRT overflow mode; not part of any queue
	next     nodeRef
	xfer     uint64 // last observed head-transfer count for this lock

	nb bool // requested through a nonblocking entry
	// viaLRT marks a grant that came directly from the LRT (uncontended or
	// overflow). Only such entries may be dropped at acquisition; a node
	// granted by direct transfer is a queue head and must keep its entry
	// so in-flight forwarded requests find it.
	viaLRT bool

	timerSeq uint64    // grant-timer generation
	waiter   *sim.Proc // local thread parked on this entry
}

// reset clears an entry back to an unallocated slot, preserving its class.
func (e *entry) reset() {
	cl := e.class
	*e = entry{class: cl}
}
