// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel advances a virtual clock measured in cycles and executes
// scheduled events in (time, insertion-order) order. Simulated threads are
// modelled as Procs: runtime coroutines (iter.Pull) of which exactly one
// is runnable at any instant, so simulation state needs no locking and
// every run is bit-for-bit reproducible.
package sim

import (
	"fmt"

	"fairrw/internal/obs"
)

// Time is a point in virtual time, in cycles.
type Time uint64

// Event kinds. Every event carries one Receiver and one tag word: a
// closure (funcRecv), the target Proc of the hot paths (Wait, Wake,
// BlockTimeout), or a message receiver that keys its in-flight state by
// tag. All three are pointer-shaped, so none is boxed and nothing is
// allocated per event.
const (
	evFn       byte = iota // run the funcRecv
	evDispatch             // dispatch the Proc
	evTimeout              // Proc.Recv(wseq): dispatch if still blocked on wseq
	evRecv                 // recv.Recv(tag)

	kindBits = 2
)

// Receiver consumes tagged deliveries scheduled with ScheduleRecv. The tag
// is opaque to the kernel; receivers typically use it to index a table of
// pending value-typed messages.
type Receiver interface {
	Recv(tag uint64)
}

// funcRecv adapts a closure to the event's Receiver slot.
type funcRecv func()

func (f funcRecv) Recv(uint64) { f() }

// event is a scheduled callback, stored by value in the heap: 40 bytes, so
// a sift moves five words.
type event struct {
	at   Time
	seq  uint64   // insertion order (the tie-breaker) << kindBits | kind
	tag  uint64   // evTimeout: Proc.wakeSeq guard; evRecv: delivery tag
	recv Receiver // funcRecv, *Proc or the message receiver
}

// eventLess orders events by (time, insertion order); the kind bits sit
// below a unique insertion number and never decide.
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Kernel is the simulation engine. It is not safe for concurrent use from
// multiple goroutines; Procs hand control back to the kernel before it ever
// resumes another Proc. Concurrent sweeps therefore give each run its own
// Kernel.
type Kernel struct {
	now Time
	// events is a value-based binary min-heap ordered by (at, seq). Pushing
	// a value into the slice avoids the per-event allocation and the
	// interface boxing that container/heap would impose.
	events []event
	seq    uint64
	procs  []*Proc
	// limit is the current RunUntil horizon; the Wait fast path must not
	// advance the clock beyond it.
	limit Time

	// nEvents counts executed events, for diagnostics and runaway guards.
	nEvents uint64
	// MaxEvents aborts the run (panic) when exceeded; 0 means no limit.
	MaxEvents uint64

	// Obs, when non-nil, receives a record per executed event (gated
	// further by its own options). The nil check is the only cost tracing
	// adds to the dispatch loop when disabled.
	Obs *obs.Capture
}

// New returns an empty kernel at time 0.
func New() *Kernel {
	return &Kernel{limit: ^Time(0)}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Events returns the number of events executed so far.
func (k *Kernel) Events() uint64 { return k.nEvents }

// push stamps a new event with the next insertion number and inserts it
// into the heap (sift-up).
func (k *Kernel) push(at Time, kind byte, r Receiver, tag uint64) {
	k.seq++
	h := append(k.events, event{at: at, seq: k.seq<<kindBits | uint64(kind), tag: tag, recv: r})
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !eventLess(&h[i], &h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	k.events = h
}

// pop removes and returns the minimum event (sift-down).
func (k *Kernel) pop() event {
	h := k.events
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{} // release the receiver
	h = h[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && eventLess(&h[r], &h[l]) {
			m = r
		}
		if !eventLess(&h[m], &h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	k.events = h
	return top
}

// Schedule runs fn at now+delay. Events scheduled for the same instant run
// in the order they were scheduled.
func (k *Kernel) Schedule(delay Time, fn func()) {
	k.push(k.now+delay, evFn, funcRecv(fn), 0)
}

// ScheduleAt runs fn at absolute time at, which must not be in the past.
func (k *Kernel) ScheduleAt(at Time, fn func()) {
	if at < k.now {
		panic(fmt.Sprintf("sim: ScheduleAt(%d) in the past (now=%d)", at, k.now))
	}
	k.push(at, evFn, funcRecv(fn), 0)
}

// pushDispatch schedules a dispatch of p at now+delay without allocating.
func (k *Kernel) pushDispatch(delay Time, p *Proc) {
	k.push(k.now+delay, evDispatch, p, 0)
}

// pushTimeout schedules a conditional dispatch of p at now+delay, valid
// only while p is still blocked on wait-sequence wseq.
func (k *Kernel) pushTimeout(delay Time, p *Proc, wseq uint64) {
	k.push(k.now+delay, evTimeout, p, wseq)
}

// ScheduleRecv schedules r.Recv(tag) at now+delay without allocating: the
// receiver and tag travel as plain event fields. It is the closure-free
// counterpart of Schedule for message-passing senders.
func (k *Kernel) ScheduleRecv(delay Time, r Receiver, tag uint64) {
	k.push(k.now+delay, evRecv, r, tag)
}

// Run executes events until the queue is empty or every Proc has finished.
// It returns the final virtual time.
func (k *Kernel) Run() Time {
	return k.RunUntil(^Time(0))
}

// RunUntil executes events with timestamps <= limit. Events beyond the
// limit remain queued.
func (k *Kernel) RunUntil(limit Time) Time {
	k.limit = limit
	for len(k.events) > 0 && k.events[0].at <= limit {
		e := k.pop()
		if e.at > k.now {
			k.now = e.at
		}
		k.nEvents++
		kind := byte(e.seq & (1<<kindBits - 1))
		if k.Obs != nil {
			k.Obs.KernelEvent(uint64(k.now), kind)
		}
		if k.MaxEvents != 0 && k.nEvents > k.MaxEvents {
			panic(fmt.Sprintf("sim: event budget exceeded (%d events, now=%d)", k.nEvents, k.now))
		}
		switch kind {
		case evFn:
			e.recv.(funcRecv)()
		case evDispatch:
			k.dispatch(e.recv.(*Proc))
		default: // evRecv, evTimeout
			e.recv.Recv(e.tag)
		}
	}
	k.limit = ^Time(0)
	return k.now
}

// Idle reports whether no events are pending.
func (k *Kernel) Idle() bool { return len(k.events) == 0 }

// Reset returns the kernel to its post-New state — time zero, no events,
// no procs — while keeping the event heap's backing array, so a reused
// machine pays no kernel rebuild. Procs still parked (blocked forever, or
// cut off by a RunUntil horizon or a panic) are unwound so their
// coroutines exit, and any still-queued events are dropped.
func (k *Kernel) Reset() {
	for _, p := range k.procs {
		if !p.finished {
			p.stop()
		}
	}
	clear(k.events) // release the receivers
	k.events = k.events[:0]
	clear(k.procs)
	k.procs = k.procs[:0]
	k.now = 0
	k.seq = 0
	k.limit = ^Time(0)
	k.nEvents = 0
	k.Obs = nil
}
