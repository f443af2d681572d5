package lockmgr

import (
	"bytes"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"fairrw/internal/lockmgr/introspect"
)

// goid parses the runtime's goroutine id from the stack header. Test-only:
// it lets a CohortFunc look up per-goroutine cohort tags so the test can
// stage waiters from chosen locality domains.
func goid() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	f := bytes.Fields(buf[:n])
	id, _ := strconv.ParseUint(string(f[1]), 10, 64)
	return id
}

// lookupEntry fetches the live table entry for name without touching its
// refcount. Test-only: callers must know the entry is pinned (held or
// queued on) so the idle collection cannot take it out from under the pointer.
func lookupEntry(m *Manager, name string) *entry {
	sh := &m.shards[introspect.Hash(name)&m.mask]
	sh.mu.Lock()
	e := sh.entries[name]
	sh.mu.Unlock()
	return e
}

// TestCohortBatchingAcrossManager wires Config.CohortBatch/CohortFunc
// through to entry locks and checks that (a) a releaser's cohort-mate is
// granted ahead of an older waiter from another cohort, and (b) the
// bypass lands in the manager-wide cohort_grants counter and Snapshot.
func TestCohortBatchingAcrossManager(t *testing.T) {
	var tags sync.Map // goid -> uint32 cohort tag
	cfg := fastCfg()
	cfg.CohortBatch = 2
	cfg.CohortFunc = func() uint32 {
		if v, ok := tags.Load(goid()); ok {
			return v.(uint32)
		}
		return 99
	}
	m := newTest(t, cfg)

	tags.Store(goid(), uint32(1))
	main := mustOpen(t, m, time.Minute)
	if err := m.Acquire(main, "k", true, -1); err != nil {
		t.Fatalf("acquire: %v", err)
	}
	if lookupEntry(m, "k") == nil {
		t.Fatal("entry not in table while held")
	}

	// Stage two exclusive waiters: first from cohort 5, then from the
	// releaser's cohort 1. Serial QueueLen waits pin FIFO arrival order.
	order := make(chan int, 2)
	errs := make(chan error, 2)
	start := func(id int, cohort uint32, wantQ int) {
		t.Helper()
		go func() {
			tags.Store(goid(), cohort)
			sid, err := m.Open(time.Minute)
			if err == nil {
				err = m.Acquire(sid, "k", true, -1)
			}
			order <- id
			if err == nil {
				err = m.Release(sid, "k", true)
			}
			errs <- err
		}()
		deadline := time.Now().Add(5 * time.Second)
		for m.QueueLen("k") != wantQ {
			if time.Now().After(deadline) {
				t.Fatalf("waiter %d never queued (QueueLen=%d, want %d)",
					id, m.QueueLen("k"), wantQ)
			}
			runtime.Gosched()
		}
	}
	start(0, 5, 1)
	start(1, 1, 2)

	// Cohort-1 release: waiter 1 (cohort 1) must bypass waiter 0.
	if err := m.Release(main, "k", true); err != nil {
		t.Fatalf("release: %v", err)
	}
	var got []int
	grantDeadline := time.After(5 * time.Second)
	for len(got) < 2 {
		select {
		case id := <-order:
			got = append(got, id)
		case <-grantDeadline:
			t.Fatalf("waiters stalled; grant order so far %v", got)
		}
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatalf("waiter error: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("waiter never released")
		}
	}
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("grant order = %v, want [1 0]", got)
	}

	snap := m.Stats()
	if snap.CohortGrants != 1 {
		t.Fatalf("CohortGrants = %d, want 1", snap.CohortGrants)
	}
	if snap.CohortBatch != 2 {
		t.Fatalf("CohortBatch = %d, want 2", snap.CohortBatch)
	}
	if m.CohortBatch() != 2 {
		t.Fatalf("Manager.CohortBatch() = %d, want 2", m.CohortBatch())
	}
}

// TestCohortDisabledStrictFIFO pins that a zero CohortBatch leaves entry
// locks in strict arrival order and reports no cohort grants.
func TestCohortDisabledStrictFIFO(t *testing.T) {
	var tags sync.Map
	cfg := fastCfg()
	cfg.CohortFunc = func() uint32 { // ignored without a batch bound
		if v, ok := tags.Load(goid()); ok {
			return v.(uint32)
		}
		return 99
	}
	m := newTest(t, cfg)

	tags.Store(goid(), uint32(1))
	main := mustOpen(t, m, time.Minute)
	if err := m.Acquire(main, "k", true, -1); err != nil {
		t.Fatalf("acquire: %v", err)
	}

	order := make(chan int, 2)
	errs := make(chan error, 2)
	start := func(id int, cohort uint32, wantQ int) {
		t.Helper()
		go func() {
			tags.Store(goid(), cohort)
			sid, err := m.Open(time.Minute)
			if err == nil {
				err = m.Acquire(sid, "k", true, -1)
			}
			order <- id
			if err == nil {
				err = m.Release(sid, "k", true)
			}
			errs <- err
		}()
		deadline := time.Now().Add(5 * time.Second)
		for m.QueueLen("k") != wantQ {
			if time.Now().After(deadline) {
				t.Fatalf("waiter %d never queued", id)
			}
			runtime.Gosched()
		}
	}
	start(0, 5, 1)
	start(1, 1, 2)

	if err := m.Release(main, "k", true); err != nil {
		t.Fatalf("release: %v", err)
	}
	var got []int
	deadline := time.After(5 * time.Second)
	for len(got) < 2 {
		select {
		case id := <-order:
			got = append(got, id)
		case <-deadline:
			t.Fatalf("waiters stalled; grant order so far %v", got)
		}
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("waiter error: %v", err)
		}
	}
	if got[0] != 0 || got[1] != 1 {
		t.Fatalf("grant order = %v, want [0 1]", got)
	}
	if snap := m.Stats(); snap.CohortGrants != 0 || snap.CohortBatch != 0 {
		t.Fatalf("snapshot cohort fields = %d/%d, want 0/0",
			snap.CohortGrants, snap.CohortBatch)
	}
}
