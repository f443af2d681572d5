// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel advances a virtual clock measured in cycles and executes
// scheduled events in (time, insertion-order) order. Simulated threads are
// modelled as Procs: runtime coroutines (iter.Pull) of which exactly one
// is runnable at any instant, so simulation state needs no locking and
// every run is bit-for-bit reproducible. The event loop has no goroutine
// of its own: it runs on whichever goroutine gave up the thread — the
// RunUntil caller or a blocking Proc — which passes the thread straight
// to the next Proc an event resumes.
package sim

import (
	"fmt"
	"math/bits"
	"runtime"
)

// Time is a point in virtual time, in cycles. ^Time(0) is "never": it
// marks an empty queue, and nothing scheduled there runs.
type Time uint64

const never = ^Time(0)

// Event kinds. Every event carries one Receiver and one tag word: a
// closure (funcRecv), the target Proc of the hot paths (Wait, Wake,
// BlockTimeout), or a message receiver that keys its in-flight state by
// tag. All three are pointer-shaped, so none is boxed and nothing is
// allocated per event.
const (
	evFn       byte = iota // run the funcRecv
	evDispatch             // resume the Proc
	evTimeout              // resume the Proc if still blocked on wait-sequence tag
	evRecv                 // recv.Recv(tag)

	kindBits = 2
)

// The wheel has one bucket per cycle for the wheelSize cycles starting at
// Kernel.base; 99.5 % of sim-stm's and 99.99 % of sim-micro's event delays
// are shorter (EXPERIMENTS.md, "Event wheel").
const (
	wheelSize = 1 << 10
	wheelMask = wheelSize - 1
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

// event is a scheduled callback beyond the wheel, stored by value in the
// overflow heap: 40 bytes, so a sift moves five words.
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

// node is a scheduled callback on the wheel. Its time is its bucket's, and
// its place in the bucket's FIFO is its insertion order.
type node struct {
	recv Receiver
	tag  uint64
	next uint32 // next node in the bucket, or on the free list; 0 ends both
	kind byte
}

// bucket is one cycle's FIFO of node indices; 0 is the empty link.
type bucket struct{ head, tail uint32 }

// Kernel is the simulation engine. It is not safe for concurrent use from
// multiple goroutines: one thread of control runs it, passed from the
// RunUntil caller to a Proc and from Proc to Proc, and the goroutine that
// holds it runs the event loop whenever its Proc blocks. Concurrent sweeps
// therefore give each run its own Kernel.
type Kernel struct {
	now Time
	// nextAt is the earliest pending event's time, never when none is, so
	// the Wait fast path and the RunUntil horizon are one compare each.
	nextAt Time

	// The event queue is a time wheel (a calendar queue with one-cycle
	// buckets): an event at t in [base, base+wheelSize) sits in bucket
	// t&wheelMask, and occupied marks the non-empty buckets. Nodes live in
	// one slab with a free list, so the steady state allocates nothing.
	// Events from base+wheelSize on wait in the overflow heap, ordered by
	// (at, seq); pop advances base and moves them in before any handler
	// can push into their cycle, which keeps same-instant order equal to
	// insertion order. The wheel is built on the first push: machines are
	// constructed far more often than run.
	base     Time
	wheel    *[wheelSize]bucket
	occupied [wheelSize / 64]uint64
	nodes    []node // nodes[0] is the nil link
	free     uint32
	overflow []event
	seq      uint64 // overflow insertion counter

	procs []*Proc
	// limit is the current RunUntil horizon, at most never-1; the Wait fast
	// path must not advance the clock beyond it. It is never between runs.
	limit Time

	// caller is the RunUntil (or Reset) caller's goroutine as a runner:
	// the loop passes it the thread at the horizon or an empty queue.
	caller runner
	// to is the runner the thread is being passed to (park).
	to *runner
	// fault is a panic, or a procGoexit, that ended a Proc's goroutine and
	// is raised again on the RunUntil caller's.
	fault any
	// stopping is set while Reset unwinds parked Procs.
	stopping bool
	// switches counts park's coroutine switches (a Proc's exit is not
	// one), for tests.
	switches uint64

	// nEvents counts executed events, for diagnostics and runaway guards.
	nEvents uint64
	// MaxEvents aborts the run (panic) when exceeded; 0 means no limit.
	MaxEvents uint64
}

// New returns an empty kernel at time 0.
func New() *Kernel {
	return &Kernel{nextAt: never, limit: never}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Events returns the number of events executed so far.
func (k *Kernel) Events() uint64 { return k.nEvents }

// push queues an event at time at, which is never before base.
func (k *Kernel) push(at Time, kind byte, r Receiver, tag uint64) {
	if at < k.nextAt {
		k.nextAt = at
	}
	if at-k.base < wheelSize {
		k.link(at, kind, r, tag)
		return
	}
	k.seq++
	k.pushOverflow(event{at: at, seq: k.seq<<kindBits | uint64(kind), tag: tag, recv: r})
}

// link appends an event to the tail of its cycle's bucket.
func (k *Kernel) link(at Time, kind byte, r Receiver, tag uint64) {
	i := k.free
	if i == 0 {
		i = k.grow()
	}
	n := &k.nodes[i]
	k.free = n.next
	*n = node{recv: r, tag: tag, kind: kind}
	slot := at & wheelMask
	b := &k.wheel[slot]
	if b.head == 0 {
		b.head = i
		k.occupied[slot/64] |= 1 << (slot % 64)
	} else {
		k.nodes[b.tail].next = i
	}
	b.tail = i
}

// grow adds a node to the slab, building the wheel on first use, and
// returns its index.
func (k *Kernel) grow() uint32 {
	if k.wheel == nil {
		k.wheel = new([wheelSize]bucket)
		k.nodes = make([]node, 1, 64)
	}
	k.nodes = append(k.nodes, node{})
	return uint32(len(k.nodes) - 1)
}

// pop removes the earliest event, which is due at nextAt, and returns it.
func (k *Kernel) pop() (at Time, kind byte, r Receiver, tag uint64) {
	at = k.nextAt
	if at != k.base {
		k.base = at
		for len(k.overflow) > 0 && k.overflow[0].at-at < wheelSize {
			e := k.popOverflow()
			k.link(e.at, byte(e.seq&(1<<kindBits-1)), e.recv, e.tag)
		}
	}
	slot := at & wheelMask
	b := &k.wheel[slot]
	i := b.head
	n := &k.nodes[i]
	kind, r, tag = n.kind, n.recv, n.tag
	b.head = n.next
	*n = node{next: k.free} // release the receiver
	k.free = i
	if b.head == 0 {
		k.occupied[slot/64] &^= 1 << (slot % 64)
		k.nextAt = k.scan(at)
	}
	return
}

// scan returns the earliest pending time after at, where at == base and
// its bucket is empty: the first occupied bucket of the wheel's other
// wheelSize-1, taken cyclically from at+1, else the overflow's minimum.
func (k *Kernel) scan(at Time) Time {
	from := uint(at+1) & wheelMask
	w := from / 64
	word := k.occupied[w] &^ (1<<(from%64) - 1)
	for n := 0; ; n++ {
		if word != 0 {
			slot := w*64 + uint(bits.TrailingZeros64(word))
			return at + 1 + Time((slot-from)&wheelMask)
		}
		if n == len(k.occupied) {
			break // back at from's word: its low bits were the last slots
		}
		w = (w + 1) % uint(len(k.occupied))
		word = k.occupied[w]
	}
	if len(k.overflow) > 0 {
		return k.overflow[0].at
	}
	return never
}

// pushOverflow inserts e into the overflow heap (sift-up).
func (k *Kernel) pushOverflow(e event) {
	h := append(k.overflow, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !eventLess(&h[i], &h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	k.overflow = h
}

// popOverflow removes and returns the overflow heap's minimum (sift-down).
func (k *Kernel) popOverflow() event {
	h := k.overflow
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
	k.overflow = h
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
	return k.RunUntil(never)
}

// RunUntil executes events with timestamps <= limit. Events beyond the
// limit remain queued. A panic that ends a Proc — raised in its body or in
// an event its goroutine ran — surfaces here, on the caller's goroutine,
// and a runtime.Goexit that ends a Proc ends the caller's goroutine too.
//
// RunUntil must not be called from inside a run, by an event or a Proc
// body, and panics if it is: an event may be running on a parked Proc's
// goroutine, whose body cannot resume until the event returns. After a
// panic out of RunUntil, Reset the kernel before running it again.
func (k *Kernel) RunUntil(limit Time) Time {
	if k.limit != never {
		panic("sim: RunUntil called inside a run (from an event or a Proc body) or after a panic without Reset")
	}
	k.limit = min(limit, never-1) // nextAt == never is the empty queue
	k.run(&k.caller)
	k.limit = never
	if f := k.fault; f != nil {
		k.fault = nil
		if g, ok := f.(procGoexit); ok {
			// Park in the ending Proc's slot and pass it the thread back.
			// Its goroutine's exit releases this one inside iter.Pull's
			// next, which re-raises the Goexit, or its yield.
			k.to = &g.p.runner
			k.park(&k.caller, g.p)
			runtime.Goexit()
		}
		panic(f)
	}
	return k.now
}

// run is the event loop, run by self's goroutine when self gives up the
// thread. It executes due events in place until one resumes a runner; if
// that is self, run returns at once, and otherwise it passes the thread
// straight to that runner and returns when the thread is passed back.
func (k *Kernel) run(self *runner) {
	if t := k.next(); t != self {
		k.handoff(self, t)
	}
}

// next executes due events in (time, insertion) order until one resumes a
// runner, and returns it: the Proc of a dispatch or of a timeout it is
// still blocked on, or the RunUntil caller at the horizon or an empty
// queue.
func (k *Kernel) next() *runner {
	limit := k.limit
	for k.nextAt <= limit {
		at, kind, r, tag := k.pop()
		if at > k.now {
			k.now = at
		}
		k.nEvents++
		if k.MaxEvents != 0 && k.nEvents > k.MaxEvents {
			panic(fmt.Sprintf("sim: event budget exceeded (%d events, now=%d)", k.nEvents, k.now))
		}
		switch kind {
		case evFn:
			r.(funcRecv)()
		case evRecv:
			r.Recv(tag)
		case evDispatch:
			if p := r.(*Proc); !p.finished {
				return &p.runner
			}
		default: // evTimeout
			if p := r.(*Proc); p.blocked && p.wakeSeq == tag {
				p.timedOut = true
				p.blocked = false
				return &p.runner
			}
		}
	}
	return &k.caller
}

// Idle reports whether no events are pending.
func (k *Kernel) Idle() bool { return k.nextAt == never }

// Reset returns the kernel to its post-New state — time zero, no events,
// no procs — while keeping the wheel, its node slab and the overflow
// heap's backing array, so a reused machine pays no kernel rebuild. Procs
// still parked (blocked forever, or cut off by a RunUntil horizon or a
// panic) are unwound so their coroutines exit, and any still-queued events
// are dropped.
func (k *Kernel) Reset() {
	k.stopping = true
	for _, p := range k.procs {
		if p.finished {
			continue
		}
		k.to = &p.runner
		if p.in == p {
			p.stop() // parked in its own slot; if never dispatched, its body never runs
		} else {
			k.park(&k.caller, p.in)
		}
	}
	k.stopping = false
	k.caller, k.to, k.fault, k.switches = runner{}, nil, nil, 0
	if k.wheel != nil {
		clear(k.wheel[:])
		clear(k.nodes) // release the receivers
		k.nodes = k.nodes[:1]
	}
	clear(k.occupied[:])
	k.free = 0
	clear(k.overflow)
	k.overflow = k.overflow[:0]
	clear(k.procs)
	k.procs = k.procs[:0]
	k.now = 0
	k.nextAt = never
	k.base = 0
	k.seq = 0
	k.limit = never
	k.nEvents = 0
}
