package lockmgr

import (
	"fmt"
	"testing"
	"time"
)

// session looks sid up under mu: nil once the session is gone.
func (m *Manager) session(sid uint64) *Session {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sessions[sid]
}

// checkInvariants takes one consistent snapshot of the table — one hold of
// mu — and fails t if the locks, the holds, the queues, the session wait
// lists, the waiting gauge or the deadline heap disagree with each other.
func checkInvariants(t *testing.T, m *Manager) {
	t.Helper()
	m.mu.Lock()
	err := m.invariantErr()
	m.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
}

func (m *Manager) invariantErr() error {
	shared, excl := map[*entry]int32{}, map[*entry]int{}
	for sid, s := range m.sessions {
		if s.id != sid || s.closed {
			return fmt.Errorf("session %d: in the table as %d, closed %v", s.id, sid, s.closed)
		}
		for name, h := range s.holds {
			if m.entries[name] != h.e || (h.shared == 0 && !h.excl) {
				return fmt.Errorf("session %d: hold on %q is not a live entry's, or empty (%+v)", sid, name, *h)
			}
			shared[h.e] += int32(h.shared)
			if h.excl {
				excl[h.e]++
			}
		}
	}
	queued := map[*waitNode]bool{}
	for name, e := range m.entries {
		readers, writer := e.lk.Holders()
		if writer && readers != 0 {
			return fmt.Errorf("%q: a writer beside %d readers", name, readers)
		}
		if e.name != name || int32(readers) != shared[e] || writer != (excl[e] == 1) || excl[e] > 1 {
			return fmt.Errorf("%q: readers %d writer %v, but the sessions hold %d shared and %d exclusive",
				name, readers, writer, shared[e], excl[e])
		}
		// The FIFO's own links, tail and length are fairq's, checked by its
		// trace test after every step; here each node must be this entry's.
		n := 0
		for v := e.lk.Head(); v != nil; v = v.Next() {
			if v.V.e != e || !e.lk.Queued(v) || v.V.s == nil || m.sessions[v.V.s.id] != v.V.s {
				return fmt.Errorf("%q: queued node %d is another entry's, mislinked or of a dead session", name, n)
			}
			if dl := &v.V.dl; !dl.at.IsZero() && (dl.hpos == 0 || m.deadlines[dl.hpos-1] != dl) {
				return fmt.Errorf("%q: queued node %d has a deadline that is not on the heap", name, n)
			}
			queued[v] = true
			n++
		}
		if e.lk.Len() != n {
			return fmt.Errorf("%q: Len %d, FIFO holds %d", name, e.lk.Len(), n)
		}
		if h := e.lk.Head(); h != nil && e.lk.Fits(h.Write) {
			return fmt.Errorf("%q: the queue head (excl %v) fits the holders but still waits", name, h.Write)
		}
	}
	if w := m.c.Waiting; w != int64(len(queued)) {
		return fmt.Errorf("waiting gauge %d, %d acquires queued", w, len(queued))
	}
	onLists := 0
	for sid, s := range m.sessions {
		for v, prev := s.waits, (*waitNode)(nil); v != nil; prev, v = v, v.V.snext {
			if !queued[v] || v.V.s != s || v.V.sprev != prev {
				return fmt.Errorf("session %d: a node on its wait list is not its queued acquire", sid)
			}
			onLists++
		}
	}
	if onLists != len(queued) {
		return fmt.Errorf("%d acquires queued, %d on session wait lists", len(queued), onLists)
	}
	for i, it := range m.deadlines {
		if it.hpos != i+1 || (it.n != nil && !queued[it.n]) || (it.s != nil && m.sessions[it.s.id] != it.s) {
			return fmt.Errorf("deadline heap item %d is misplaced or belongs to no queued acquire or live session", i)
		}
	}
	return nil
}

// TestCheckInvariantsSeesAQueue: the checker passes a table with holders,
// a queue and a bounded wait, and fails one whose gauge is off by one.
func TestCheckInvariantsSeesAQueue(t *testing.T) {
	m := newTest(t, slowCfg())
	a, b, c := mustOpen(t, m, time.Minute), mustOpen(t, m, time.Minute), mustOpen(t, m, time.Minute)
	if err := m.Acquire(a, "k", false, 0); err != nil {
		t.Fatal(err)
	}
	queue(t, m, b, "k", true, time.Minute)
	queue(t, m, c, "k", false, -1)
	checkInvariants(t, m)
	m.mu.Lock()
	m.c.Waiting++
	err := m.invariantErr()
	m.c.Waiting--
	m.mu.Unlock()
	if err == nil {
		t.Fatal("a waiting gauge one too high passed the check")
	}
}

// BenchmarkIdleWalkHold is what the one coarse lock costs as the table
// grows: the two Manager.mu holds that walk every entry, at 10k and 100k
// idle entries. collectIdle is timed alone, under mu, on the pass that
// finds every entry due and deletes it. HotLocks is the whole call: its
// walk runs under mu and its sort after, so the row bounds the hold from
// above.
//
//	go test -run '^$' -bench IdleWalkHold -benchtime 5x ./internal/lockmgr
func BenchmarkIdleWalkHold(b *testing.B) {
	cfg := Config{MaxLease: time.Hour, IdleTTL: time.Hour}
	for _, n := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("collectIdle/%dk", n/1000), func(b *testing.B) {
			m := New(cfg)
			defer m.Close()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				fillIdle(m, n)
				later := m.clk.now().Add(cfg.IdleTTL)
				b.StartTimer()
				m.mu.Lock()
				left := m.collectIdle(later)
				m.mu.Unlock()
				if left != 0 {
					b.Fatalf("%d entries left", left)
				}
			}
		})
		b.Run(fmt.Sprintf("HotLocks/%dk", n/1000), func(b *testing.B) {
			m := New(cfg)
			defer m.Close()
			fillIdle(m, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hotSink = m.HotLocks(10)
			}
		})
	}
}

var hotSink []LockProfile

// fillIdle adds n idle entries to m, each acquired and released once.
func fillIdle(m *Manager, n int) {
	sc := m.NewBatchScratch()
	sid, _ := m.Open(time.Hour)
	ops := make([]BatchOp, 0, 512)
	for i := 0; i < n; i += 256 {
		ops = ops[:0]
		for j := i; j < min(i+256, n); j++ {
			name := []byte(fmt.Sprintf("idle-%06d", j))
			ops = append(ops, BatchOp{Kind: BatchAcquire, SID: sid, Name: name},
				BatchOp{Kind: BatchRelease, SID: sid, Name: name})
		}
		m.ExecBatch(ops, sc)
	}
	m.CloseSession(sid)
}
