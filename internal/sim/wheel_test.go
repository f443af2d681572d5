//go:build go1.23

package sim

import (
	"fmt"
	"iter"
	"math/rand"
	"slices"
	"testing"
)

// refKernel is the differential oracle: the kernel as it was before the
// event wheel, every event on one binary min-heap ordered by (at, seq),
// with its Procs. It is cut down to what the traces drive (no event
// budget) and is otherwise the parent's code.
type refKernel struct {
	now     Time
	events  []event
	seq     uint64
	procs   []*refProc
	limit   Time
	nEvents uint64
}

func newRefKernel() *refKernel { return &refKernel{limit: ^Time(0)} }

func (k *refKernel) Now() Time      { return k.now }
func (k *refKernel) Events() uint64 { return k.nEvents }

func (k *refKernel) push(at Time, kind byte, r Receiver, tag uint64) {
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

func (k *refKernel) pop() event {
	h := k.events
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{}
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

func (k *refKernel) Schedule(delay Time, fn func()) { k.push(k.now+delay, evFn, funcRecv(fn), 0) }

func (k *refKernel) ScheduleAt(at Time, fn func()) {
	if at < k.now {
		panic("sim: ScheduleAt in the past")
	}
	k.push(at, evFn, funcRecv(fn), 0)
}

func (k *refKernel) ScheduleRecv(delay Time, r Receiver, tag uint64) {
	k.push(k.now+delay, evRecv, r, tag)
}

func (k *refKernel) Run() Time { return k.RunUntil(^Time(0)) }

func (k *refKernel) RunUntil(limit Time) Time {
	k.limit = limit
	for len(k.events) > 0 && k.events[0].at <= limit {
		e := k.pop()
		if e.at > k.now {
			k.now = e.at
		}
		k.nEvents++
		switch byte(e.seq & (1<<kindBits - 1)) {
		case evFn:
			e.recv.(funcRecv)()
		case evDispatch:
			k.dispatch(e.recv.(*refProc))
		default:
			e.recv.Recv(e.tag)
		}
	}
	k.limit = ^Time(0)
	return k.now
}

func (k *refKernel) Reset() {
	for _, p := range k.procs {
		if !p.finished {
			p.stop()
		}
	}
	clear(k.events)
	k.events = k.events[:0]
	clear(k.procs)
	k.procs = k.procs[:0]
	k.now = 0
	k.seq = 0
	k.limit = ^Time(0)
	k.nEvents = 0
}

func (k *refKernel) spawn(body func(traceProc)) {
	p := &refProc{k: k}
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
	k.push(k.now, evDispatch, p, 0)
}

func (k *refKernel) dispatch(p *refProc) {
	if !p.finished {
		p.next()
	}
}

// refProc is the oracle's Proc: the parent's Proc over refKernel.
type refProc struct {
	k                           *refKernel
	next                        func() (struct{}, bool)
	stop                        func()
	yield                       func(struct{}) bool
	blocked, finished, timedOut bool
	wakeSeq                     uint64
}

func (p *refProc) Recv(wseq uint64) {
	if p.blocked && p.wakeSeq == wseq {
		p.timedOut = true
		p.blocked = false
		p.k.dispatch(p)
	}
}

func (p *refProc) Now() Time     { return p.k.now }
func (p *refProc) Blocked() bool { return p.blocked }

func (p *refProc) Wait(d Time) {
	p.wakeSeq++
	k := p.k
	at := k.now + d
	if at <= k.limit && (len(k.events) == 0 || k.events[0].at > at) {
		k.now = at
		return
	}
	k.push(at, evDispatch, p, 0)
	p.park()
}

func (p *refProc) Block() {
	p.blocked = true
	p.wakeSeq++
	p.park()
}

func (p *refProc) BlockTimeout(d Time) bool {
	p.blocked = true
	p.wakeSeq++
	p.timedOut = false
	p.k.push(p.k.now+d, evTimeout, p, p.wakeSeq)
	p.park()
	return !p.timedOut
}

func (p *refProc) Wake(delay Time) {
	if !p.blocked {
		panic("sim: Wake but proc is not blocked")
	}
	p.blocked = false
	p.wakeSeq++
	p.k.push(p.k.now+delay, evDispatch, p, 0)
}

func (p *refProc) park() {
	if !p.yield(struct{}{}) {
		panic(procStopped{})
	}
}

// traceKernel and traceProc are what a trace drives: the wheel kernel
// (through wheelKernel) and the oracle both implement them.
type traceKernel interface {
	Now() Time
	Events() uint64
	Schedule(delay Time, fn func())
	ScheduleAt(at Time, fn func())
	ScheduleRecv(delay Time, r Receiver, tag uint64)
	RunUntil(limit Time) Time
	Run() Time
	Reset()
	spawn(body func(traceProc))
}

type traceProc interface {
	Now() Time
	Wait(d Time)
	Block()
	BlockTimeout(d Time) bool
	Wake(delay Time)
	Blocked() bool
}

type wheelKernel struct{ *Kernel }

func (k wheelKernel) spawn(body func(traceProc)) {
	k.Spawn("trace", func(p *Proc) { body(p) })
}

// step is one line of an executed log: at now, with events executed so
// far, something of kind ran; id is the insertion number of what ran (an
// event, a Proc's wait) or a returned value.
type step struct {
	now    Time
	events uint64
	kind   byte
	id     uint64
}

// tracer plays one seeded random trace against a kernel. Every choice is
// drawn from rng in execution order, so two kernels that execute events in
// the same order draw the same trace and write the same log; the first
// reordering makes the logs diverge.
type tracer struct {
	k       traceKernel
	rng     *rand.Rand
	log     []step
	ids     uint64
	budget  int // pushes left to handlers this round
	procs   int // Procs left to spawn this round
	blocked []traceProc
}

func (t *tracer) record(kind byte, id uint64) {
	t.log = append(t.log, step{t.k.Now(), t.k.Events(), kind, id})
}

func (t *tracer) id() uint64 { t.ids++; return t.ids }

// delay draws over 0…4·wheelSize, with the wheel's edges and same-instant
// collisions overrepresented.
func (t *tracer) delay() Time {
	switch t.rng.Intn(6) {
	case 0:
		return 0
	case 1:
		return wheelSize - 1 + Time(t.rng.Intn(3)) // wheelSize−1, wheelSize, wheelSize+1
	case 2:
		return Time(t.rng.Intn(4))
	default:
		return Time(t.rng.Intn(4*wheelSize + 1))
	}
}

// Recv makes the tracer the receiver of its ScheduleRecv events.
func (t *tracer) Recv(tag uint64) {
	t.record('r', tag)
	t.act()
}

// schedule queues one fn or receiver event at now+d.
func (t *tracer) schedule(d Time) {
	if t.budget <= 0 {
		return
	}
	t.budget--
	id := t.id()
	if t.rng.Intn(2) == 0 {
		t.k.ScheduleRecv(d, t, id)
		return
	}
	t.k.Schedule(d, func() {
		t.record('f', id)
		t.act()
	})
}

// act is what a fn or receiver event does when it runs.
func (t *tracer) act() {
	for n := 1 + t.rng.Intn(3); n > 0; n-- {
		switch t.rng.Intn(10) {
		case 0, 1, 2:
			t.schedule(t.delay())
		case 3: // same-instant burst
			d := t.delay()
			for b := 1 + t.rng.Intn(4); b > 0; b-- {
				t.schedule(d)
			}
		case 4:
			if t.budget > 0 {
				t.budget--
				id := t.id()
				t.k.ScheduleAt(t.k.Now()+t.delay(), func() {
					t.record('a', id)
					t.act()
				})
			}
		case 5, 6:
			t.wake()
		case 7:
			t.spawn()
		}
	}
}

// wake wakes one Proc from the blocked list, if any.
func (t *tracer) wake() {
	if len(t.blocked) == 0 {
		return
	}
	i := t.rng.Intn(len(t.blocked))
	p := t.blocked[i]
	t.blocked = slices.Delete(t.blocked, i, i+1)
	if p.Blocked() {
		p.Wake(t.delay())
	}
}

func (t *tracer) unlist(p traceProc) {
	if i := slices.Index(t.blocked, p); i >= 0 {
		t.blocked = slices.Delete(t.blocked, i, i+1)
	}
}

// spawn starts a Proc that waits, blocks and schedules at random.
func (t *tracer) spawn() {
	if t.procs <= 0 {
		return
	}
	t.procs--
	id := t.id()
	t.k.spawn(func(p traceProc) {
		t.record('s', id)
		for n := t.rng.Intn(12); n > 0; n-- {
			switch t.rng.Intn(8) {
			case 0, 1, 2:
				p.Wait(t.delay())
				t.record('w', id)
			case 3:
				p.Wait(0) // Yield
				t.record('y', id)
			case 4:
				t.blocked = append(t.blocked, p)
				p.Block()
				t.record('b', id)
			case 5:
				t.blocked = append(t.blocked, p)
				kind := byte('T') // timed out
				if p.BlockTimeout(t.delay()) {
					kind = 't'
				}
				t.unlist(p)
				t.record(kind, id)
			default:
				t.schedule(t.delay())
			}
		}
	})
}

// play runs three rounds on one kernel. Each seeds events and Procs, runs
// to a few random horizons and then either to the end or into a Reset that
// drops whatever is still queued or parked.
func (t *tracer) play() {
	for round := 0; round < 3; round++ {
		t.budget, t.procs = 150, 6
		for n := 1 + t.rng.Intn(4); n > 0; n-- {
			t.schedule(t.delay())
		}
		for n := t.rng.Intn(3); n > 0; n-- {
			t.spawn()
		}
		for n := t.rng.Intn(4); n > 0; n-- {
			t.record('U', uint64(t.k.RunUntil(t.k.Now()+t.delay())))
		}
		if t.rng.Intn(3) > 0 {
			t.record('R', uint64(t.k.Run()))
		}
		t.k.Reset()
		t.blocked = t.blocked[:0]
		t.record('X', 0)
	}
}

// TestWheelMatchesHeapOracle replays seeded random traces — Schedule,
// ScheduleAt, ScheduleRecv, Spawn + Wait, Block + Wake, BlockTimeout,
// RunUntil horizons, Reset — through the wheel kernel and the
// heap-only oracle, and requires the same executed log (time, kind,
// insertion number, events so far) from both.
func TestWheelMatchesHeapOracle(t *testing.T) {
	const seeds = 1000
	overflowed := 0
	for seed := int64(1); seed <= seeds; seed++ {
		k := New()
		wheel := &tracer{k: wheelKernel{k}, rng: rand.New(rand.NewSource(seed))}
		ref := &tracer{k: newRefKernel(), rng: rand.New(rand.NewSource(seed))}
		wheel.play()
		ref.play()
		if cap(k.overflow) > 0 { // Reset keeps the overflow's storage
			overflowed++
		}
		if i := firstDiff(wheel.log, ref.log); i >= 0 {
			t.Fatalf("seed %d: logs diverge at step %d of %d/%d\nwheel: %s\n heap: %s",
				seed, i, len(wheel.log), len(ref.log), around(wheel.log, i), around(ref.log, i))
		}
	}
	// The traces must reach the overflow, or they test only half the queue.
	if overflowed < seeds/2 {
		t.Errorf("only %d of %d seeds pushed past the wheel", overflowed, seeds)
	}
}

func firstDiff(a, b []step) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// around formats the log steps leading up to step i, and i itself.
func around(log []step, i int) string {
	s := ""
	for j := max(0, i-3); j <= i && j < len(log); j++ {
		e := log[j]
		s += fmt.Sprintf(" %c#%d@%d/%d", e.kind, e.id, e.now, e.events)
	}
	return s
}
