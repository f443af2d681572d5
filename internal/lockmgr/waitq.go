package lockmgr

import (
	"container/heap"
	"time"

	"fairrw/internal/obs"
)

// The waiter queue and the manager's timer. An acquire that has to wait is
// a waitNode on its entry's FIFO. Every way a wait can end — a release
// that lets it in, its deadline, its session's expiry or close, its
// connection's death — goes through complete, under Manager.mu, and
// leaves a Completion that settle books and delivers once mu is released.
// admit is the one admission decision; fairlock.RefRWMutex is its oracle
// (queue_test.go). Whatever happens because time passed — a wait's
// timeout, a lease's expiry, the collection of idle entries — is an item
// on one deadline heap behind one timer that runs only expire.

// Waiter is where a queued batch acquire's outcome goes. ExecBatch hands
// the completions its own ops cause back to its caller
// (BatchScratch.Completions); one that resolves elsewhere — a scalar
// Release, the manager's timer, Close — is delivered by calling Complete,
// from that goroutine, with Manager.mu free.
type Waiter interface {
	Complete(Completion)
}

// Completion is the outcome of one queued acquire: nil (granted),
// ErrTimeout or ErrExpired, with the measured queue wait.
type Completion struct {
	W    Waiter
	Tag  int32
	SID  uint64
	Hash uint32 // lock-name hash, as in flight events
	Err  error
	Wait time.Duration

	name string
	excl bool
	at   int64 // when the wait ended on the manager's clock (t0+Wait), UnixNano
}

// chanWaiter completes a blocking Manager.Acquire.
type chanWaiter chan error

func (c chanWaiter) Complete(cp Completion) { c <- cp.Err }

// waitNode is one queued acquire, linked into its entry's FIFO
// (next/prev; a free node's next is the manager's free list), its
// session's list (snext/sprev) and, if its wait is bounded, the deadline
// heap (dl), all under Manager.mu.
type waitNode struct {
	next, prev   *waitNode
	snext, sprev *waitNode
	e            *entry
	s            *Session // nil while free
	w            Waiter
	tag          int32
	excl         bool
	t0           time.Time
	dl           timed // dl.at zero: until granted or revoked
}

// waitq is an entry's FIFO of queued acquires.
type waitq struct {
	head, tail *waitNode
	n          int
}

func (q *waitq) pushBack(n *waitNode) {
	n.prev, n.next = q.tail, nil
	if q.tail != nil {
		q.tail.next = n
	} else {
		q.head = n
	}
	q.tail = n
	q.n++
}

func (q *waitq) remove(n *waitNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		q.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		q.tail = n.prev
	}
	q.n--
}

// timed is one item of the deadline heap: a bounded wait (n), a session's
// lease (s) or, with neither, the idle-entry collection (Manager.gc).
type timed struct {
	at   time.Time
	hpos int // 1 + index in Manager.deadlines; 0 = not on the heap
	n    *waitNode
	s    *Session
}

// deadlineHeap orders what the timer has to do by when (container/heap).
type deadlineHeap []*timed

func (h deadlineHeap) Len() int           { return len(h) }
func (h deadlineHeap) Less(i, j int) bool { return h[i].at.Before(h[j].at) }
func (h deadlineHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i]; h[i].hpos, h[j].hpos = i+1, j+1 }
func (h *deadlineHeap) Push(x any)        { it := x.(*timed); *h = append(*h, it); it.hpos = len(*h) }
func (h *deadlineHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	it.hpos = 0
	return it
}

// enqueue queues the acquire v describes behind everyone already waiting
// on v.e. A bounded wait (wait > 0) ends with ErrTimeout at v.t0+wait or
// when the lease known now runs out, whichever is first; an unbounded one
// ends only by grant or revocation. mu is held.
func (m *Manager) enqueue(v waitNode, wait time.Duration) {
	n := m.free
	if n != nil {
		m.free = n.next
	} else {
		n = new(waitNode)
	}
	*n = v
	n.e.q.pushBack(n)
	if n.snext = n.s.waits; n.snext != nil {
		n.snext.sprev = n
	}
	n.s.waits = n
	m.c.waiting.Add(1)
	if wait > 0 {
		n.dl.n = n
		m.schedule(&n.dl, n.t0.Add(min(wait, n.s.deadline.Sub(n.t0))))
	}
}

// schedule puts it on the heap for at and has the timer fire by then. An
// item already there only moves up: the collection keeps its pending pass,
// a lease cut short is due at once, and an extended one is re-keyed by
// expire when its old deadline surfaces — extending never comes here.
func (m *Manager) schedule(it *timed, at time.Time) {
	if it.hpos == 0 {
		it.at = at
		heap.Push(&m.deadlines, it)
	} else if at.Before(it.at) {
		it.at = at
		heap.Fix(&m.deadlines, it.hpos-1)
	}
	if it.hpos == 1 {
		m.arm(it.at)
	}
}

// unschedule takes it off the heap, if it is on it.
func (m *Manager) unschedule(it *timed) {
	if it.hpos != 0 {
		heap.Remove(&m.deadlines, it.hpos-1)
	}
}

// arm makes the timer fire no later than at — never again once the
// manager is closed.
func (m *Manager) arm(at time.Time) {
	if m.closed || (!m.timerAt.IsZero() && !at.Before(m.timerAt)) {
		return
	}
	m.timerAt = at
	if d := at.Sub(m.clk.now()); m.timer == nil {
		m.timer = m.clk.afterFunc(d, func() { m.expire(m.clk.now()) })
	} else {
		m.timer.Reset(d)
	}
}

// expire is what the timer runs, in one hold: each item due at now comes
// off the heap, earliest first — a wait times out, a lease not renewed
// meanwhile expires its session, the collection deletes entries idle for
// IdleTTL — then the timer is re-armed for the earliest one left, if any,
// and the outcomes are settled. No-op after Close.
func (m *Manager) expire(now time.Time) {
	var done []Completion
	m.mu.Lock()
	m.timerAt = time.Time{}
	for !m.closed && len(m.deadlines) > 0 && !m.deadlines[0].at.After(now) {
		switch it := m.deadlines[0]; {
		case it.n != nil: // every wait on its entry that is due, and only then whoever they were blocking
			e := it.n.e
			for n := e.q.head; n != nil; {
				next := n.next
				if !n.dl.at.IsZero() && !n.dl.at.After(now) {
					m.complete(n, ErrTimeout, now, &done)
				}
				n = next
			}
			m.admit(e, now, &done)
		case it.s != nil:
			heap.Pop(&m.deadlines)
			if it.s.deadline.After(now) { // renewed since it was keyed: back on, at that deadline
				m.schedule(it, it.s.deadline)
			} else {
				m.expireSession(it.s, true, now, &done)
			}
		default:
			heap.Pop(&m.deadlines)
			if m.collectIdle(now) > 0 {
				m.schedule(it, now.Add(m.cfg.IdleTTL))
			}
		}
	}
	if len(m.deadlines) > 0 {
		m.arm(m.deadlines[0].at)
	}
	m.unlock(done)
}

// cancelWaits ends the queued acquires of s — w's, or all of them when w
// is nil — with ErrExpired and admits whoever each was blocking. mu is
// held.
func (m *Manager) cancelWaits(s *Session, w Waiter, now time.Time, done *[]Completion) {
	for {
		n := s.waits
		for n != nil && w != nil && n.w != w {
			n = n.snext
		}
		if n == nil {
			return
		}
		e, err := n.e, ErrExpired
		if !n.dl.at.IsZero() && !n.dl.at.After(now) {
			err = ErrTimeout // its own deadline came first, whoever got here first
		}
		m.complete(n, err, now, done)
		m.admit(e, now, done)
	}
}

// CancelWait cancels what w has queued under sid, if it still is: a
// server calls it when the connection that was to get the answer is gone,
// so a dead client does not sit in the queue (and then hold the lock
// unannounced) until its wait or lease runs out. w is told like any other
// outcome.
func (m *Manager) CancelWait(sid uint64, w Waiter) {
	var done []Completion
	now := m.clk.now()
	m.mu.Lock()
	if s := m.sessions[sid]; s != nil {
		m.cancelWaits(s, w, now, &done)
	}
	m.unlock(done)
}

// complete ends n's wait with err — nil is a grant, which complete makes
// itself unless n's session was revoked meanwhile (or the manager is
// closing: Close promises queued acquires ErrExpired, not a grant it is
// about to revoke) — and returns the outcome. It is the only way out of
// the queue: n leaves the FIFO, its session's list and the deadline heap,
// the outcome is appended to done, the node is recycled. mu is held.
func (m *Manager) complete(n *waitNode, err error, now time.Time, done *[]Completion) error {
	e, s := n.e, n.s
	if err == nil {
		if s.closed || m.closed {
			err = ErrExpired
		} else {
			s.grant(s.holds[e.name], e, n.excl, now.UnixNano())
		}
	}
	if n.sprev != nil {
		n.sprev.snext = n.snext
	} else {
		s.waits = n.snext
	}
	if n.snext != nil {
		n.snext.sprev = n.sprev
	}
	e.q.remove(n)
	m.c.waiting.Add(-1)
	m.unschedule(&n.dl)
	waited := now.Sub(n.t0)
	if err == nil {
		e.waitNS += int64(waited)
		e.maxWaitNS = max(e.maxWaitNS, int64(waited))
	}
	*done = append(*done, Completion{W: n.w, Tag: n.tag, SID: s.id, Hash: e.hash,
		Err: err, Wait: waited, name: e.name, excl: n.excl, at: now.UnixNano()})
	*n = waitNode{next: m.free}
	m.free = n
	return err
}

// admit grants queued acquires of e in arrival order while the head's
// grant is feasible, as the LRT hands a released lock to the head of its
// queue: a granted reader lets the next waiter be considered, so
// consecutive readers go in together, and a granted writer ends the pass.
// Nobody is ever overtaken. It also stamps e idle if that is how the
// caller's op left it. mu is held.
func (m *Manager) admit(e *entry, now time.Time, done *[]Completion) {
	for h := e.q.head; h != nil; h = e.q.head {
		if !e.feasible(h.excl) {
			return
		}
		if excl := h.excl; m.complete(h, nil, now, done) == nil && excl {
			return
		}
	}
	if e.idle() {
		e.idleAt = now
	}
}

// settle books each completed wait — grant and timeout counters, the wait
// histogram, flight events, the slow-lock report; only an acquire that
// queued has queue wait to attribute — and delivers it to its Waiter, with
// mu free. From
// ExecBatch (batch) the caller's own waiters are not called: their
// completions are returned, for it to answer in the same round.
func (m *Manager) settle(done []Completion, batch bool) []Completion {
	kept := done[:0]
	for _, cp := range done {
		rec := obs.Record{At: uint64(cp.at), Lock: uint64(cp.Hash), Tid: cp.SID, Aux: uint64(cp.Wait),
			Node: obs.LRTNode(0), Kind: obs.KCancel}
		switch {
		case cp.Err == nil && cp.excl:
			m.c.exclGrants.Add(1)
			rec.Kind = obs.KLRTGrant
		case cp.Err == nil:
			m.c.sharedGrants.Add(1)
			rec.Kind = obs.KLRTGrant
		case cp.Err == ErrTimeout:
			m.c.timeouts.Add(1)
			rec.Kind = obs.KTimeout
		}
		m.cfg.Recorder.Record(cp.Hash, rec)
		if cp.Err == nil {
			m.observeWait(uint64(cp.Wait), 1)
			if t := m.cfg.SlowLock; t > 0 && cp.Wait >= t {
				rec.Kind = obs.KSlow
				m.cfg.Recorder.Record(cp.Hash, rec)
				if fn := m.cfg.SlowLockFn; fn != nil {
					fn(cp.name, cp.SID, cp.excl, cp.Wait)
				}
			}
		}
		if _, own := cp.W.(chanWaiter); batch && !own {
			kept = append(kept, cp)
		} else {
			cp.W.Complete(cp)
		}
	}
	return kept
}
