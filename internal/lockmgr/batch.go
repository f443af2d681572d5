package lockmgr

import (
	"errors"
	"time"
)

// Batch execution. The event-loop server decodes every frame a worker
// drained in one wakeup into a single []BatchOp and executes it with
// ExecBatch, which amortizes the per-operation overheads of the scalar
// path across the batch:
//
//   - one clock read for the whole batch (the scalar path reads the
//     clock up to three times per op);
//   - one session-table RLock pass resolving every sid at once;
//   - each table shard locked once per batch for entry ref/unref, not
//     once per op (the software analogue of the LRT servicing a burst
//     of requests in one table walk);
//   - grant/timeout counters and the wait histogram updated once with
//     batch totals.
//
// Acquires in a batch only ever take the lock-free try path. An acquire
// that would have to queue returns ErrWouldBlock with no side effects;
// the caller parks it as a continuation (Manager.Acquire on a separate
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
	Kind BatchKind
	Tag  int32 // connection id: ops sharing a Tag execute strictly in order
	SID  uint64
	Excl bool
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

func (sc *BatchScratch) touch(si int32) {
	for _, t := range sc.touched {
		if t == si {
			return
		}
	}
	sc.touched = append(sc.touched, si)
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
// (and OutSID for opens). See the package comment above for semantics;
// sc must not be shared between concurrent ExecBatch calls.
func (m *Manager) ExecBatch(ops []BatchOp, sc *BatchScratch) {
	if len(ops) == 0 {
		return
	}
	sc.reset()
	now := time.Now()
	closed := m.closed.Load()

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
		if op.Kind != BatchAcquire {
			continue
		}
		if len(op.Name) == 0 || len(op.Name) > MaxNameLen {
			op.Err = ErrName
			continue
		}
		si := int32(fnv32b(op.Name) & m.mask)
		sc.shardOps[si] = append(sc.shardOps[si], int32(i))
		sc.touch(si)
	}
	for _, si := range sc.touched {
		idx := sc.shardOps[si]
		if len(idx) == 0 {
			continue
		}
		sh := &m.shards[si]
		sh.mu.Lock()
		for _, i := range idx {
			op := &ops[i]
			e := sh.entries[string(op.Name)] // alloc-free lookup
			if e == nil {
				name := string(op.Name) // the one copy: entry creation
				e = m.newEntry(name)
				sh.entries[name] = e
				m.c.entriesCreated.Add(1)
			}
			e.refs++
			e.acquires++ // contention profile: only acquires are refed here
			op.e = e
		}
		sh.mu.Unlock()
	}

	// Phase 3: execute in submission order.
	var sharedGrants, exclGrants, releases, timeouts, zeroWaits uint64
	for i := range ops {
		op := &ops[i]
		if op.Err != nil {
			continue
		}
		if sc.isBlocked(op.Tag) {
			op.Err = ErrDeferred
			if op.e != nil {
				m.unref(int32(i), op.e, sc)
			}
			continue
		}
		switch op.Kind {
		case BatchOpen:
			if closed {
				op.Err = ErrClosed
				continue
			}
			op.OutSID, op.Err = m.openAt(time.Duration(op.Lease), now)
		case BatchKeepAlive:
			op.Err = m.keepAliveSession(op.s, time.Duration(op.Lease), now)
		case BatchCloseSession:
			if op.s == nil {
				op.Err = ErrExpired
				continue
			}
			m.expireSession(op.s, false)
		case BatchAcquire:
			granted, err := m.tryAcquireOp(op, now)
			switch {
			case err != nil:
				op.Err = err
				m.unref(int32(i), op.e, sc)
				if err == ErrWouldBlock {
					sc.blocked = append(sc.blocked, op.Tag)
				} else if err == ErrTimeout {
					timeouts++
				}
			case granted && op.Excl:
				exclGrants++
				zeroWaits++
			case granted:
				sharedGrants++
				zeroWaits++
			}
		case BatchRelease:
			if len(op.Name) == 0 || len(op.Name) > MaxNameLen {
				op.Err = ErrName
				continue
			}
			op.Err = m.releaseOp(int32(i), op, sc, now)
			if op.Err == nil {
				releases++
			}
		default:
			op.Err = ErrName
		}
	}

	// Phase 4: apply the batched unrefs, one shard lock per shard.
	for _, si := range sc.touched {
		idx := sc.derefs[si]
		if len(idx) == 0 {
			continue
		}
		sh := &m.shards[si]
		sh.mu.Lock()
		for _, i := range idx {
			e := ops[i].e
			e.refs--
			if e.refs == 0 {
				e.idleAt = now
			}
		}
		sh.mu.Unlock()
	}

	// Phase 5: counters and the wait histogram, once per batch.
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
	if zeroWaits > 0 {
		m.observeZeroWaits(zeroWaits)
	}
	if len(sc.holdNS) > 0 {
		m.observeHolds(sc.holdNS)
	}
}

// unref queues the entry reference held by ops[i] for the phase-4
// shard pass.
func (m *Manager) unref(i int32, e *entry, sc *BatchScratch) {
	si := int32(fnv32(e.name) & m.mask)
	sc.derefs[si] = append(sc.derefs[si], i)
	sc.touch(si)
}

// tryAcquireOp is the batch acquire: session checks, the lock-free try,
// and hold bookkeeping under a single session-mutex hold. It returns
// (granted, error); ErrWouldBlock means "park me".
func (m *Manager) tryAcquireOp(op *BatchOp, now time.Time) (bool, error) {
	s := op.s
	if s == nil {
		return false, ErrExpired
	}
	e := op.e
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false, ErrExpired
	}
	if now.After(s.deadline) {
		s.mu.Unlock()
		m.expireSession(s, true)
		return false, ErrExpired
	}
	h := s.holds[e.name]
	if op.Excl && h != nil && h.excl {
		s.mu.Unlock()
		return false, ErrHeld
	}
	var ok bool
	if op.Excl {
		ok = e.lock.TryLock()
	} else {
		ok = e.lock.TryRLock()
	}
	if !ok {
		s.mu.Unlock()
		if op.Wait != 0 {
			return false, ErrWouldBlock
		}
		return false, ErrTimeout
	}
	if h == nil {
		if h = s.free; h != nil {
			s.free = nil
			*h = hold{e: e}
		} else {
			h = &hold{e: e}
		}
		s.holds[e.name] = h
	}
	if op.Excl {
		h.excl = true
	} else {
		h.shared++
	}
	h.grantNS = now.UnixNano()
	s.mu.Unlock()
	return true, nil
}

// releaseOp is the batch release; the entry unref is deferred to the
// phase-4 shard pass via op.e, the hold-time sample to the phase-5
// histogram flush via sc.holdNS.
func (m *Manager) releaseOp(i int32, op *BatchOp, sc *BatchScratch, now time.Time) error {
	s := op.s
	if s == nil {
		return ErrExpired
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrExpired
	}
	h := s.holds[string(op.Name)]
	if h == nil || (op.Excl && !h.excl) || (!op.Excl && h.shared == 0) {
		s.mu.Unlock()
		return ErrNotHeld
	}
	e := h.e
	if op.Excl {
		h.excl = false
	} else {
		h.shared--
	}
	sc.holdNS = append(sc.holdNS, now.UnixNano()-h.grantNS)
	if !h.excl && h.shared == 0 {
		delete(s.holds, e.name)
		s.free = h
	}
	s.mu.Unlock()
	if op.Excl {
		e.lock.Unlock()
	} else {
		e.lock.RUnlock()
	}
	op.e = e
	m.unref(i, e, sc)
	return nil
}

// openAt is Open with the caller's clock reading.
func (m *Manager) openAt(lease time.Duration, now time.Time) (uint64, error) {
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

// keepAliveSession is KeepAlive on an already-resolved session.
func (m *Manager) keepAliveSession(s *Session, lease time.Duration, now time.Time) error {
	if s == nil {
		return ErrExpired
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrExpired
	}
	if now.After(s.deadline) {
		s.mu.Unlock()
		m.expireSession(s, true)
		return ErrExpired
	}
	s.deadline = now.Add(m.clampLease(lease))
	s.mu.Unlock()
	m.c.keepalives.Add(1)
	return nil
}

// fnv32b is fnv32 over bytes (alloc-free shard hash for names that
// alias a parse buffer).
func fnv32b(b []byte) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(b); i++ {
		h = (h ^ uint32(b[i])) * 16777619
	}
	return h
}
