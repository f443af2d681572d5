package lockmgr

import (
	"errors"
	"time"
)

// Batch execution. The manager has one op core — live, acquire, release,
// keepAliveSession, closeSession, openAt, and admit/complete for the
// queue (waitq.go) — and two entry points onto it: the scalar methods run
// one op with its own clock read and session lookup; ExecBatch runs the
// same functions over every frame a server worker drained in one wakeup,
// so an op has the same result and the same effect on the counters
// whichever way it arrives (differential_test.go holds the two to that).
// What ExecBatch adds is amortization — one clock read and one hold of
// Manager.mu for the whole batch, in which each op books its own counters
// and samples as its scalar method's hold does — and the completion list:
// a release in the batch grants the acquires queued behind it then and
// there, and ExecBatch hands those outcomes back with the batch's own
// results, so the waiter is answered in the releaser's round.
//
// ExecBatch never blocks: where Manager.Acquire waits on a channel, a
// batch acquire that has to wait is queued for its op's Waiter and
// returns ErrWouldBlock; its outcome arrives later as a Completion.
var (
	// ErrWouldBlock: the acquire did not get the lock at once and asked
	// to wait (Wait != 0). With a Waiter on the op it is queued and the
	// Waiter will get its outcome; without one no state changed (retry
	// with Manager.Acquire off the batch path).
	ErrWouldBlock = errors.New("lockmgr: acquire would block")
	// ErrDeferred: an earlier op with the same Tag returned
	// ErrWouldBlock, so this op was not executed at all (per-connection
	// order must hold). Re-submit it after the queued op completes.
	ErrDeferred = errors.New("lockmgr: op deferred behind a queued acquire")
)

// BatchKind selects what a BatchOp does.
type BatchKind uint8

const (
	BatchAcquire BatchKind = iota + 1
	BatchRelease
	BatchOpen
	BatchKeepAlive
	BatchCloseSession
	// BatchNone executes nothing and keeps its Err: the caller answers it.
	BatchNone
)

// BatchOp is one operation in a batch. Name aliases the caller's buffer
// (the connection's ring) and is only copied if a new table entry has to
// be created, so a steady-state batch does not allocate.
type BatchOp struct {
	Kind   BatchKind
	Tag    int32 // connection id: ops sharing a Tag execute strictly in order
	SID    uint64
	Excl   bool
	Wait   int64 // acquire: nanoseconds, as Manager.Acquire
	Lease  int64 // open/keepalive: nanoseconds
	Name   []byte
	Waiter Waiter // acquire: who to tell if it has to queue; its Completion carries Tag

	// Results.
	Err    error
	OutSID uint64 // open: the new session id
}

// BatchScratch is reusable per-worker scratch for ExecBatch so batch
// execution itself does not allocate. The zero value is ready to use.
type BatchScratch struct {
	blocked []int32      // tags with a queued acquire this batch
	done    []Completion // queued acquires this batch resolved
}

// NewBatchScratch returns scratch for one worker; not safe for
// concurrent use.
func (m *Manager) NewBatchScratch() *BatchScratch { return new(BatchScratch) }

// Completions returns the queued acquires the last ExecBatch resolved for
// Waiters it was given — by this or an earlier batch — in the order they
// resolved. The caller answers them; the slice is reused by the next
// ExecBatch.
func (sc *BatchScratch) Completions() []Completion { return sc.done }

func (sc *BatchScratch) isBlocked(tag int32) bool {
	for _, t := range sc.blocked {
		if t == tag {
			return true
		}
	}
	return false
}

// ExecBatch executes ops in order, writing each op's result into Err
// (and OutSID for opens). See the comment at the top of this file for
// semantics; sc must not be shared between concurrent ExecBatch calls.
func (m *Manager) ExecBatch(ops []BatchOp, sc *BatchScratch) {
	sc.blocked, sc.done = sc.blocked[:0], sc.done[:0]
	if len(ops) == 0 {
		return
	}
	now := m.clk.now()

	// Execute in submission order, in one hold, each op through the same
	// function its scalar method calls.
	m.mu.Lock()
	for i := range ops {
		op := &ops[i]
		if sc.isBlocked(op.Tag) {
			op.Err = ErrDeferred
			continue
		}
		s := m.sessions[op.SID]
		switch op.Kind {
		case BatchOpen:
			op.OutSID, op.Err = m.openAt(time.Duration(op.Lease), now)
		case BatchKeepAlive:
			op.Err = m.keepAliveSession(s, time.Duration(op.Lease), now, &sc.done)
		case BatchCloseSession:
			op.Err = m.closeSession(s, now, &sc.done)
		case BatchAcquire:
			op.Err = acquire(m, s, op.Name, op.Excl, time.Duration(op.Wait), op.Waiter, op.Tag, now, &sc.done)
			if op.Err == ErrWouldBlock {
				sc.blocked = append(sc.blocked, op.Tag)
			}
		case BatchRelease:
			op.Err = release(m, s, op.Name, op.Excl, now, &sc.done)
		case BatchNone:
		default:
			op.Err = ErrName
		}
	}
	m.mu.Unlock()
	sc.done = m.settle(sc.done, true)
}

// openAt is Open with the caller's clock reading. mu is held.
func (m *Manager) openAt(lease time.Duration, now time.Time) (uint64, error) {
	if m.closed {
		return 0, ErrClosed
	}
	m.nextSID++
	s := &Session{
		id:       m.nextSID,
		holds:    make(map[string]*hold),
		deadline: now.Add(m.clampLease(lease)),
	}
	s.lease.s = s
	m.sessions[s.id] = s
	m.schedule(&s.lease, s.deadline)
	m.c.SessionsOpened++
	return s.id, nil
}

// keepAliveSession is KeepAlive on an already-resolved session (nil if
// unknown) with the caller's clock reading. mu is held.
func (m *Manager) keepAliveSession(s *Session, lease time.Duration, now time.Time, done *[]Completion) error {
	if err := m.live(s, now, done); err != nil {
		return err
	}
	s.deadline = now.Add(m.clampLease(lease))
	if s.deadline.Before(s.lease.at) { // cut short: due then, not when the old deadline surfaces
		m.schedule(&s.lease, s.deadline)
	}
	m.c.Keepalives++
	return nil
}
