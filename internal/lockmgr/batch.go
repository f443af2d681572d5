package lockmgr

import (
	"errors"
	"time"

	"fairrw/internal/lockmgr/introspect"
)

// Batch execution. The manager has one op core — live, tryAcquire,
// Session.grant, release, keepAliveSession, closeSession, openAt — and
// two entry points onto it: the scalar methods run one op with its own
// clock read, session lookup and shard lock; ExecBatch runs the same
// functions over every frame a server worker drained in one wakeup, so
// an op has the same result and the same effect on the counters
// whichever way it arrives (differential_test.go holds the two to that).
// What ExecBatch adds is amortization:
//
//   - one clock read for the whole batch;
//   - one session-table RLock pass resolving every sid at once;
//   - each table shard locked once per batch for entry ref/unref, not
//     once per op (the software analogue of the LRT servicing a burst
//     of requests in one table walk);
//   - grant/timeout counters and the wait and hold histograms updated
//     once with batch totals.
//
// ExecBatch never blocks: where Manager.Acquire goes on to waitAcquire,
// a batch acquire returns ErrWouldBlock with no side effects and the
// caller parks it as a continuation (Manager.Acquire on a separate
// goroutine) so the event loop never stalls on a contended lock.
var (
	// ErrWouldBlock: the acquire did not get the lock on the try path
	// and asked to wait (Wait != 0). No state changed; retry with
	// Manager.Acquire off the batch path.
	ErrWouldBlock = errors.New("lockmgr: acquire would block")
	// ErrDeferred: an earlier op with the same Tag returned
	// ErrWouldBlock, so this op was not executed at all (per-connection
	// order must hold). Re-submit it after the parked op completes.
	ErrDeferred = errors.New("lockmgr: op deferred behind a parked acquire")
)

// BatchKind selects what a BatchOp does.
type BatchKind uint8

const (
	BatchAcquire BatchKind = iota + 1
	BatchRelease
	BatchOpen
	BatchKeepAlive
	BatchCloseSession
)

// BatchOp is one operation in a batch. Name aliases the caller's buffer
// (the connection's ring) and is only copied if a new table entry has to
// be created, so a steady-state batch does not allocate.
type BatchOp struct {
	Kind  BatchKind
	Tag   int32 // connection id: ops sharing a Tag execute strictly in order
	SID   uint64
	Excl  bool
	Wait  int64 // acquire: nanoseconds, as Manager.Acquire
	Lease int64 // open/keepalive: nanoseconds
	Name  []byte

	// Results.
	Err    error
	OutSID uint64 // open: the new session id

	e *entry   // internal: refed entry for acquires
	s *Session // internal: resolved session
}

// BatchScratch is reusable per-worker scratch for ExecBatch so batch
// execution itself does not allocate. The zero value is ready to use.
type BatchScratch struct {
	shardOps [][]int32 // per-shard op indexes (ref phase)
	derefs   [][]int32 // per-shard op indexes (unref phase)
	touched  []int32   // shards with pending work this batch
	blocked  []int32   // tags with a parked acquire this batch
	holdNS   []int64   // hold times observed this batch (phase-5 flush)
}

// NewBatchScratch allocates scratch sized to this manager's shard count.
// One per worker; not safe for concurrent use.
func (m *Manager) NewBatchScratch() *BatchScratch {
	return &BatchScratch{
		shardOps: make([][]int32, len(m.shards)),
		derefs:   make([][]int32, len(m.shards)),
	}
}

func (sc *BatchScratch) reset() {
	for _, si := range sc.touched {
		sc.shardOps[si] = sc.shardOps[si][:0]
		sc.derefs[si] = sc.derefs[si][:0]
	}
	sc.touched = sc.touched[:0]
	sc.blocked = sc.blocked[:0]
	sc.holdNS = sc.holdNS[:0]
}

// queue appends op index i to shard si's list in lists (shardOps or
// derefs) for that phase's one-lock-per-shard pass.
func (sc *BatchScratch) queue(lists [][]int32, si uint32, i int) {
	lists[si] = append(lists[si], int32(i))
	for _, t := range sc.touched {
		if t == int32(si) {
			return
		}
	}
	sc.touched = append(sc.touched, int32(si))
}

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
	if len(ops) == 0 {
		return
	}
	sc.reset()
	now := time.Now()

	// Phase 1: resolve every session in one table pass.
	m.smu.RLock()
	for i := range ops {
		op := &ops[i]
		if op.Kind != BatchOpen {
			op.s = m.sessions[op.SID]
		}
	}
	m.smu.RUnlock()

	// Phase 2: validate names and ref acquire entries, one shard lock
	// per touched shard.
	for i := range ops {
		op := &ops[i]
		op.Err = nil
		op.e = nil
		if op.Kind == BatchAcquire && validName(op.Name) {
			sc.queue(sc.shardOps, introspect.Hash(op.Name)&m.mask, i)
		}
	}
	for _, si := range sc.touched {
		sh := &m.shards[si]
		sh.mu.Lock()
		for _, i := range sc.shardOps[si] {
			op := &ops[i]
			e := sh.entries[string(op.Name)] // alloc-free lookup
			if e == nil {
				e = m.newEntry(string(op.Name), uint32(si)) // the one name copy
				sh.entries[e.name] = e
			}
			e.refs++
			e.acquires++ // contention profile: only acquires are refed here
			op.e = e
		}
		sh.mu.Unlock()
	}

	// Phase 3: execute in submission order, each op through the same
	// function its scalar method calls.
	var sharedGrants, exclGrants, releases, timeouts uint64
	for i := range ops {
		op := &ops[i]
		if sc.isBlocked(op.Tag) {
			op.Err = ErrDeferred
			if op.e != nil {
				sc.queue(sc.derefs, op.e.shard, i)
			}
			continue
		}
		switch op.Kind {
		case BatchOpen:
			op.OutSID, op.Err = m.openAt(time.Duration(op.Lease), now)
		case BatchKeepAlive:
			op.Err = m.keepAliveSession(op.s, time.Duration(op.Lease), now)
		case BatchCloseSession:
			op.Err = m.closeSession(op.s)
		case BatchAcquire:
			if op.e == nil { // phase 2 refs every valid name
				op.Err = ErrName
				continue
			}
			op.Err = m.tryAcquire(op.s, op.e, op.Excl, op.Wait != 0, now)
			switch {
			case op.Err == nil && op.Excl:
				exclGrants++
			case op.Err == nil:
				sharedGrants++
			case op.Err == ErrWouldBlock:
				sc.blocked = append(sc.blocked, op.Tag)
			case op.Err == ErrTimeout:
				timeouts++
			}
			if op.Err != nil {
				sc.queue(sc.derefs, op.e.shard, i)
			}
		case BatchRelease:
			var held int64
			if op.e, held, op.Err = release(m, op.s, op.Name, op.Excl, now); op.Err != nil {
				continue
			}
			releases++
			sc.holdNS = append(sc.holdNS, held)
			sc.queue(sc.derefs, op.e.shard, i)
		default:
			op.Err = ErrName
		}
	}

	// Phase 4: apply the batched unrefs, one shard lock per shard. An
	// acquire that was not executed to a result (parked, or deferred
	// behind a park) comes back through Manager.Acquire or a later batch
	// and is counted as an arrival then, so its phase-2 count is undone:
	// ErrWouldBlock and ErrDeferred leave no state changed, profile
	// included.
	for _, si := range sc.touched {
		idx := sc.derefs[si]
		if len(idx) == 0 {
			continue
		}
		sh := &m.shards[si]
		sh.mu.Lock()
		for _, i := range idx {
			e := ops[i].e
			if err := ops[i].Err; err == ErrWouldBlock || err == ErrDeferred {
				e.acquires--
			}
			e.refs--
			if e.refs == 0 {
				e.idleAt = now
			}
		}
		sh.mu.Unlock()
	}

	// Phase 5: counters and the wait and hold histograms, once per batch.
	if sharedGrants > 0 {
		m.c.sharedGrants.Add(sharedGrants)
	}
	if exclGrants > 0 {
		m.c.exclGrants.Add(exclGrants)
	}
	if releases > 0 {
		m.c.releases.Add(releases)
	}
	if timeouts > 0 {
		m.c.timeouts.Add(timeouts)
	}
	m.observeWait(0, sharedGrants+exclGrants)
	m.observeHold(sc.holdNS...)
}

// openAt is Open with the caller's clock reading.
func (m *Manager) openAt(lease time.Duration, now time.Time) (uint64, error) {
	if m.closed.Load() {
		return 0, ErrClosed
	}
	s := &Session{
		cancel:   make(chan struct{}),
		holds:    make(map[string]*hold),
		deadline: now.Add(m.clampLease(lease)),
	}
	m.smu.Lock()
	m.nextSID++
	s.id = m.nextSID
	m.sessions[s.id] = s
	m.smu.Unlock()
	m.c.sessionsOpened.Add(1)
	return s.id, nil
}

// keepAliveSession is KeepAlive on an already-resolved session (nil if
// unknown) with the caller's clock reading.
func (m *Manager) keepAliveSession(s *Session, lease time.Duration, now time.Time) error {
	if err := m.live(s, now); err != nil {
		return err
	}
	s.deadline = now.Add(m.clampLease(lease))
	s.mu.Unlock()
	m.c.keepalives.Add(1)
	return nil
}
