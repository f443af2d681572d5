//go:build go1.23

// The constraint sets this file's language version: iter.Pull is go1.23
// API while go.mod stays at go 1.22 (README, "Toolchain").

package sim

import (
	"fmt"
	"iter"
)

// Proc is a simulated thread of execution. Its body runs as a runtime
// coroutine (iter.Pull), so at most one Proc (or event callback) executes
// at a time: a Proc runs only between a next() from the kernel and its
// next call to a blocking primitive (Wait, Block, or returning from the
// body), and each switch hands the thread straight over, bypassing the
// scheduler's run queue. Simulation state therefore needs no locks.
type Proc struct {
	k    *Kernel
	name string
	id   int

	// next and stop are the pull side of the coroutine: next runs the body
	// up to its next yield, stop unwinds a parked body (Kernel.Reset).
	// yield is the body's side, handing control back to next's caller.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool

	blocked  bool // waiting for an explicit Wake
	finished bool
	timedOut bool // set by the kernel when a BlockTimeout expires

	// wakeSeq guards against stale timed wakeups after an early Wake.
	wakeSeq uint64
}

// procStopped is the panic value that unwinds a body whose Proc was
// stopped while parked.
type procStopped struct{}

// Spawn creates a Proc running body, scheduled to start at the current
// time (after already-queued events for this instant). A panic in body
// surfaces from the Run/RunUntil call that dispatched the Proc.
func (k *Kernel) Spawn(name string, body func(p *Proc)) *Proc {
	p := &Proc{k: k, name: name, id: len(k.procs)}
	k.procs = append(k.procs, p)
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			p.finished = true
			if r := recover(); r != nil && r != (procStopped{}) {
				panic(r)
			}
		}()
		body(p)
	})
	k.pushDispatch(0, p)
	return p
}

// dispatch transfers control to p and blocks the kernel until p yields.
func (k *Kernel) dispatch(p *Proc) {
	if p.finished {
		return
	}
	p.next()
}

// Recv makes a Proc the Receiver of its own BlockTimeout expiry: it
// resumes the Proc only if it is still blocked on wait-sequence wseq.
func (p *Proc) Recv(wseq uint64) {
	if p.blocked && p.wakeSeq == wseq {
		p.timedOut = true
		p.blocked = false
		p.k.dispatch(p)
	}
}

// Name returns the Proc's name.
func (p *Proc) Name() string { return p.name }

// ID returns the Proc's kernel-assigned index.
func (p *Proc) ID() int { return p.id }

// Kernel returns the owning kernel.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// Wait advances this Proc's execution by d cycles of virtual time. Other
// events and Procs run in the interim.
//
// Fast path: when nothing else is scheduled before now+d (and the run
// horizon allows it), no event could observe the interim, so the clock
// advances in place without a queue operation or a goroutine handoff.
func (p *Proc) Wait(d Time) {
	p.wakeSeq++
	k := p.k
	at := k.now + d
	if at <= k.limit && k.nextAt > at {
		k.now = at
		return
	}
	k.pushDispatch(d, p)
	p.yieldToKernel()
}

// Block suspends the Proc until some agent calls Wake. Typically the Proc
// registers itself on a wait list before calling Block.
func (p *Proc) Block() {
	p.blocked = true
	p.wakeSeq++
	p.yieldToKernel()
}

// BlockTimeout suspends the Proc until Wake or until d cycles elapse,
// whichever comes first. It returns true if woken explicitly, false on
// timeout.
func (p *Proc) BlockTimeout(d Time) bool {
	p.blocked = true
	p.wakeSeq++
	p.timedOut = false
	p.k.pushTimeout(d, p, p.wakeSeq)
	p.yieldToKernel()
	return !p.timedOut
}

// Wake schedules a blocked Proc to resume after delay cycles. Waking a
// Proc that is not blocked is a programming error and panics, since it
// would corrupt the single-runnable invariant.
func (p *Proc) Wake(delay Time) {
	if !p.blocked {
		panic(fmt.Sprintf("sim: Wake(%s) but proc is not blocked", p.name))
	}
	p.blocked = false
	p.wakeSeq++
	p.k.pushDispatch(delay, p)
}

// Blocked reports whether the Proc is suspended waiting for Wake.
func (p *Proc) Blocked() bool { return p.blocked }

// Finished reports whether the Proc's body has returned.
func (p *Proc) Finished() bool { return p.finished }

// Yield lets all other events at the current instant run before resuming.
func (p *Proc) Yield() { p.Wait(0) }

// yieldToKernel parks the body until the next dispatch. A false return
// from yield means the Proc was stopped: unwind the body.
func (p *Proc) yieldToKernel() {
	if !p.yield(struct{}{}) {
		panic(procStopped{})
	}
}

// WaitGroup counts outstanding Procs and lets a coordinator Proc join them.
type WaitGroup struct {
	n      int
	waiter *Proc
}

// Add registers n more outstanding Procs.
func (w *WaitGroup) Add(n int) { w.n += n }

// Done marks one Proc complete, waking the waiter when the count hits zero.
// Calling Done more times than Add is a programming error: the count would
// go negative, the zero crossing would never be seen again, and the waiter
// would sleep forever — so it panics instead.
func (w *WaitGroup) Done() {
	w.n--
	if w.n < 0 {
		panic(fmt.Sprintf("sim: WaitGroup.Done without matching Add (count=%d)", w.n))
	}
	if w.n == 0 && w.waiter != nil {
		p := w.waiter
		w.waiter = nil
		p.Wake(0)
	}
}

// WaitFor blocks p until the count reaches zero.
func (w *WaitGroup) WaitFor(p *Proc) {
	if w.n == 0 {
		return
	}
	if w.waiter != nil {
		panic("sim: WaitGroup supports a single waiter")
	}
	w.waiter = p
	p.Block()
}
