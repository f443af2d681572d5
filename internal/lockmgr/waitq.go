package lockmgr

import (
	"container/heap"
	"time"

	"fairrw/internal/fairq"
	"fairrw/internal/obs"
)

// The waiters and the manager's timer. An acquire that has to wait is a
// waitNode on its entry's fairq.Lock, whose Admit is the one admission
// rule (queue_test.go holds the table to that model step for step). Every
// way a wait can end — a release that lets it in, its deadline, its
// session's expiry or close, its connection's death — goes through
// complete, under Manager.mu, which books the outcome; settle records
// and delivers it once mu is released. Whatever happens because time passed
// — a wait's timeout, a lease's expiry, the collection of idle entries —
// is an item on one deadline heap behind one timer that runs only expire.

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

// waitNode is one queued acquire (Write: exclusive), linked into its
// entry's queue, its session's list (snext/sprev; a free node's snext is
// the manager's free list) and, if its wait is bounded, the deadline heap
// (dl), all under Manager.mu. Its payload, queued, is the manager's.
type waitNode = fairq.Node[queued]

type queued struct {
	snext, sprev *waitNode
	e            *entry
	s            *Session // nil while free
	w            Waiter
	tag          int32
	t0           time.Time
	dl           timed // dl.at zero: until granted or revoked
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

// enqueue queues the acquire v describes, in mode excl, behind everyone
// already waiting on v.e. A bounded wait (wait > 0) ends with ErrTimeout
// at v.t0+wait or when the lease known now runs out, whichever is first;
// an unbounded one ends only by grant or revocation. mu is held.
func (m *Manager) enqueue(v queued, excl bool, wait time.Duration) {
	n := m.free
	if n != nil {
		m.free = n.V.snext
	} else {
		n = new(waitNode)
	}
	n.Write, n.V = excl, v
	v.e.lk.Enqueue(n)
	if n.V.snext = v.s.waits; n.V.snext != nil {
		n.V.snext.V.sprev = n
	}
	v.s.waits = n
	m.c.Waiting++
	if wait > 0 {
		n.V.dl.n = n
		m.schedule(&n.V.dl, v.t0.Add(min(wait, v.s.deadline.Sub(v.t0))))
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
			e := it.n.V.e
			for n := e.lk.Head(); n != nil; {
				next := n.Next()
				if !n.V.dl.at.IsZero() && !n.V.dl.at.After(now) {
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
		for n != nil && w != nil && n.V.w != w {
			n = n.V.snext
		}
		if n == nil {
			return
		}
		e, err := n.V.e, ErrExpired
		if !n.V.dl.at.IsZero() && !n.V.dl.at.After(now) {
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
// about to revoke). It is the only way out of the queue: n leaves the
// FIFO, its session's list and the deadline heap, a grant (with its wait)
// or a timeout is booked, the outcome is appended to done, the node is
// recycled. mu is held.
func (m *Manager) complete(n *waitNode, err error, now time.Time, done *[]Completion) {
	v, e, s := &n.V, n.V.e, n.V.s
	if err == nil {
		if s.closed || m.closed {
			err = ErrExpired
		} else {
			e.lk.Take(n.Write)
			s.grant(s.holds[e.name], e, n.Write, now.UnixNano())
		}
	}
	if v.sprev != nil {
		v.sprev.V.snext = v.snext
	} else {
		s.waits = v.snext
	}
	if v.snext != nil {
		v.snext.V.sprev = v.sprev
	}
	e.lk.Remove(n)
	m.c.Waiting--
	m.unschedule(&v.dl)
	waited := now.Sub(v.t0)
	switch err {
	case nil:
		m.granted(n.Write, waited)
		e.waitNS += int64(waited)
		e.maxWaitNS = max(e.maxWaitNS, int64(waited))
	case ErrTimeout:
		m.c.Timeouts++
	}
	*done = append(*done, Completion{W: v.w, Tag: v.tag, SID: s.id, Hash: e.hash,
		Err: err, Wait: waited, name: e.name, excl: n.Write, at: now.UnixNano()})
	*n = waitNode{V: queued{snext: m.free}}
	m.free = n
}

// admit runs e's admission pass (fairq.Lock.Admit), each grant completed
// on the spot, and stamps e idle if that is how the caller's op left it.
// mu is held.
func (m *Manager) admit(e *entry, now time.Time, done *[]Completion) {
	e.lk.Admit(func(h *waitNode) { m.complete(h, nil, now, done) })
	if e.lk.Idle() {
		e.idleAt = now
	}
}

// settle records each completed wait — its flight event and the slow-lock
// report; only an acquire that queued has queue wait to attribute — and
// delivers it to its Waiter, with mu free. From ExecBatch (batch) the
// caller's own waiters are not called: their completions are returned, for
// it to answer in the same round.
func (m *Manager) settle(done []Completion, batch bool) []Completion {
	kept := done[:0]
	for _, cp := range done {
		rec := obs.Record{At: uint64(cp.at), Lock: uint64(cp.Hash), Tid: cp.SID, Aux: uint64(cp.Wait),
			Node: obs.LRTNode(0), Kind: obs.KCancel}
		switch cp.Err {
		case nil:
			rec.Kind = obs.KLRTGrant
		case ErrTimeout:
			rec.Kind = obs.KTimeout
		}
		m.cfg.Recorder.Record(cp.Hash, rec)
		if cp.Err == nil {
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
