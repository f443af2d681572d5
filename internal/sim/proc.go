//go:build go1.23

// The constraint sets this file's language version: a Proc's slot is an
// iter.Pull, go1.23 API, while go.mod stays at go 1.22 (README,
// "Toolchain").

package sim

import (
	"fmt"
	"iter"
)

// Proc is a simulated thread of execution. Its body runs on its own
// goroutine as a runtime coroutine (iter.Pull), and one thread of control
// passes between the RunUntil caller and the Procs, so at most one Proc
// (or event callback) executes at a time. A Proc runs from the event that
// resumes it to its next blocking primitive (Wait, Block, BlockTimeout) or
// the end of its body; there its goroutine runs the event loop itself and
// hands the thread straight to the next Proc an event resumes, bypassing
// the scheduler's run queue. Simulation state therefore needs no locks.
type Proc struct {
	runner
	k    *Kernel
	name string
	id   int

	// next, yield and stop are the Proc's iter.Pull, used as a slot: a
	// rendezvous that always has one goroutine parked in it. next and
	// yield are the same switch — the caller parks in the slot and the
	// goroutine parked there runs — and they must alternate; pulled says
	// the last switch was a next. stop unwinds a Proc parked in its own
	// slot (Kernel.Reset).
	next   func() (struct{}, bool)
	yield  func(struct{}) bool
	stop   func()
	pulled bool

	blocked  bool // waiting for an explicit Wake
	finished bool
	timedOut bool // set by the kernel when a BlockTimeout expires

	// wakeSeq guards against stale timed wakeups after an early Wake.
	wakeSeq uint64
}

// runner is a goroutine that can hold the thread: the RunUntil caller's or
// a Proc's. While it does not, in is the slot its goroutine is parked in.
type runner struct {
	in *Proc
}

// procStopped is the panic value that unwinds a body whose Proc was
// stopped while parked.
type procStopped struct{}

// procGoexit is the fault of a Proc whose goroutine runtime.Goexit ended.
type procGoexit struct{ p *Proc }

// Spawn creates a Proc running body, scheduled to start at the current
// time (after already-queued events for this instant). A panic in body
// surfaces from the RunUntil call in progress, on its caller's goroutine.
func (k *Kernel) Spawn(name string, body func(p *Proc)) *Proc {
	p := &Proc{k: k, name: name, id: len(k.procs)}
	p.in = p // its goroutine starts parked in its own slot
	k.procs = append(k.procs, p)
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		p.in = nil
		k.to = p.run(body)
	})
	k.pushDispatch(0, p)
	return p
}

// run runs the body and then, as the Proc gives up the thread for good,
// the events after it. It returns the runner the thread goes to when the
// Proc's goroutine exits, which releases whatever goroutine is parked in
// the Proc's slot: that goroutine passes the thread on (park). A panic
// here, from the body or from an event it ran, ends the Proc and goes to
// the RunUntil caller.
func (p *Proc) run(body func(*Proc)) (to *runner) {
	k := p.k
	defer func() {
		if r := recover(); r != nil {
			p.finished = true
			if r != (procStopped{}) {
				k.fault = r
			}
			to = &k.caller
		} else if to == nil {
			// runtime.Goexit, which iter.Pull passes on to the goroutine
			// parked in p's slot when this one exits. Hand the thread to
			// the RunUntil caller: it parks in p's slot and hands the
			// thread back (RunUntil), so the exit ends its goroutine too.
			p.finished = true
			k.fault = procGoexit{p}
			k.handoff(&p.runner, &k.caller)
			k.to = &k.caller
		}
	}()
	body(p)
	p.finished = true
	return k.next()
}

// handoff passes the thread from self to target and returns when it is
// passed back to self.
func (k *Kernel) handoff(self, target *runner) {
	k.to = target
	k.park(self, target.in)
}

// park parks self's goroutine in slot s, releasing the goroutine parked
// there, and returns once the thread is passed to self. A goroutine is
// released either by a switch meant for it, or by the exit of the Proc
// whose slot it is parked in; then it passes the thread on to the runner
// that Proc named. Each turn of the loop is one coroutine switch.
func (k *Kernel) park(self *runner, s *Proc) {
	for {
		self.in = s
		k.switches++
		if s.pulled {
			s.pulled = false
			s.yield(struct{}{})
		} else {
			s.pulled = true
			s.next()
		}
		self.in = nil
		t := k.to
		if t == self {
			return
		}
		s = t.in
	}
}

// suspend gives up the thread until an event resumes p. A Proc that Reset
// resumes unwinds its body instead.
func (p *Proc) suspend() {
	k := p.k
	if !k.stopping {
		k.run(&p.runner)
	}
	if k.stopping {
		panic(procStopped{})
	}
}

// Recv lets a Proc sit in the Receiver slot of its own dispatch and
// timeout events, which the loop resumes directly. A Proc is not a
// message receiver: delivering it a tag panics.
func (p *Proc) Recv(uint64) {
	panic(fmt.Sprintf("sim: Recv(%s): a Proc is not a message receiver", p.name))
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
// advances in place without a queue operation. Otherwise the Proc's own
// goroutine runs the events due first and switches only if one resumes
// another Proc or the horizon comes first.
func (p *Proc) Wait(d Time) {
	p.wakeSeq++
	k := p.k
	at := k.now + d
	if at <= k.limit && k.nextAt > at {
		k.now = at
		return
	}
	k.pushDispatch(d, p)
	p.suspend()
}

// Block suspends the Proc until some agent calls Wake. Typically the Proc
// registers itself on a wait list before calling Block.
func (p *Proc) Block() {
	p.blocked = true
	p.wakeSeq++
	p.suspend()
}

// BlockTimeout suspends the Proc until Wake or until d cycles elapse,
// whichever comes first. It returns true if woken explicitly, false on
// timeout.
func (p *Proc) BlockTimeout(d Time) bool {
	p.blocked = true
	p.wakeSeq++
	p.timedOut = false
	p.k.pushTimeout(d, p, p.wakeSeq)
	p.suspend()
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
