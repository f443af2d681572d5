package lockmgr

import (
	"errors"
	"testing"
	"time"

	"fairrw/internal/obs"
)

// TestExecBatchBasics drives a mixed batch end to end: open, grants in
// both modes, dup-excl rejection, releases, over-release, close.
func TestExecBatchBasics(t *testing.T) {
	m := New(Config{})
	defer m.Close()
	sc := m.NewBatchScratch()

	open := []BatchOp{{Kind: BatchOpen, Lease: int64(time.Second)}}
	m.ExecBatch(open, sc)
	if open[0].Err != nil || open[0].OutSID == 0 {
		t.Fatalf("batch open: %+v", open[0])
	}
	sid := open[0].OutSID

	ops := []BatchOp{
		{Kind: BatchAcquire, SID: sid, Name: []byte("a")},             // shared grant
		{Kind: BatchAcquire, SID: sid, Name: []byte("a")},             // second shared
		{Kind: BatchAcquire, SID: sid, Name: []byte("b"), Excl: true}, // excl grant
		{Kind: BatchAcquire, SID: sid, Name: []byte("b"), Excl: true}, // dup excl
		{Kind: BatchRelease, SID: sid, Name: []byte("a")},             // release shared
		{Kind: BatchRelease, SID: sid, Name: []byte("a")},             // release shared
		{Kind: BatchRelease, SID: sid, Name: []byte("a")},             // over-release
		{Kind: BatchKeepAlive, SID: sid, Lease: int64(time.Second)},
		{Kind: BatchRelease, SID: sid, Name: []byte("b"), Excl: true},
		{Kind: BatchCloseSession, SID: sid},
		{Kind: BatchAcquire, SID: sid, Name: []byte("c")}, // after close
	}
	m.ExecBatch(ops, sc)
	want := []error{nil, nil, nil, ErrHeld, nil, nil, ErrNotHeld, nil, nil, nil, ErrExpired}
	for i, w := range want {
		if ops[i].Err != w {
			t.Fatalf("op %d: got %v, want %v", i, ops[i].Err, w)
		}
	}
	snap := m.Stats()
	if snap.SharedGrants != 2 || snap.ExclGrants != 1 || snap.Releases != 3 {
		t.Fatalf("counters: %+v", snap)
	}
	if snap.WaitCount != 3 {
		t.Fatalf("wait histogram got %d grants, want 3", snap.WaitCount)
	}
}

// TestExecBatchWouldBlockAndDeferral: a contended acquire with Wait != 0
// returns ErrWouldBlock with no side effects, and every later op with
// the same Tag is deferred — while other tags proceed.
func TestExecBatchWouldBlockAndDeferral(t *testing.T) {
	m := New(Config{})
	defer m.Close()
	sc := m.NewBatchScratch()

	holder, _ := m.Open(time.Second)
	other, _ := m.Open(time.Second)
	if err := m.Acquire(holder, "k", true, 0); err != nil {
		t.Fatal(err)
	}

	ops := []BatchOp{
		{Kind: BatchAcquire, Tag: 1, SID: other, Name: []byte("k"), Excl: true, Wait: -1}, // parks
		{Kind: BatchAcquire, Tag: 1, SID: other, Name: []byte("free")},                    // deferred
		{Kind: BatchRelease, Tag: 1, SID: other, Name: []byte("free")},                    // deferred
		{Kind: BatchAcquire, Tag: 2, SID: other, Name: []byte("free")},                    // proceeds
		{Kind: BatchAcquire, Tag: 3, SID: other, Name: []byte("k"), Wait: 0},              // try: timeout
		{Kind: BatchAcquire, Tag: 1, SID: other},                                          // bad name, but deferred first: answers stay in order
		{Kind: BatchRelease, Tag: 2, SID: other},                                          // bad name
	}
	m.ExecBatch(ops, sc)
	want := []error{ErrWouldBlock, ErrDeferred, ErrDeferred, nil, ErrTimeout, ErrDeferred, ErrName}
	for i, w := range want {
		if ops[i].Err != w {
			t.Fatalf("op %d: got %v, want %v", i, ops[i].Err, w)
		}
	}

	// The would-block acquire left no trace: the holder can release and
	// the other session can then take the lock exclusively on a try.
	if err := m.Release(holder, "k", true); err != nil {
		t.Fatal(err)
	}
	retry := []BatchOp{{Kind: BatchAcquire, SID: other, Name: []byte("k"), Excl: true}}
	m.ExecBatch(retry, sc)
	if retry[0].Err != nil {
		t.Fatalf("retry after release: %v", retry[0].Err)
	}
	if got := m.Stats().Timeouts; got != 1 {
		t.Fatalf("timeouts = %d, want 1 (would-block must not count)", got)
	}
}

// TestExecBatchNone: a BatchNone op executes nothing and keeps the Err
// its caller gave it, whatever its session or name; behind a queued
// acquire of its Tag it is deferred like any op. It never moves a counter
// or creates an entry.
func TestExecBatchNone(t *testing.T) {
	m := New(Config{})
	defer m.Close()
	sc := m.NewBatchScratch()

	holder, _ := m.Open(time.Second)
	other, _ := m.Open(time.Second)
	if err := m.Acquire(holder, "k", true, 0); err != nil {
		t.Fatal(err)
	}
	before := m.Stats()
	owed := errors.New("answered by the caller")
	ops := []BatchOp{
		{Kind: BatchNone, Tag: 1, SID: other, Name: []byte("k"), Excl: true, Err: owed},   // held name: untouched
		{Kind: BatchNone, Tag: 1, SID: other, Name: []byte("new"), Err: owed},             // no entry made
		{Kind: BatchNone, Tag: 1, SID: 999999, Name: []byte("k"), Err: owed},              // unknown session: no expiry
		{Kind: BatchAcquire, Tag: 2, SID: other, Name: []byte("k"), Excl: true, Wait: -1}, // would block
		{Kind: BatchNone, Tag: 2, SID: other, Err: owed},                                  // deferred behind it
		{Kind: BatchNone, Tag: 3, Err: owed},                                              // another tag: untouched
	}
	m.ExecBatch(ops, sc)
	want := []error{owed, owed, owed, ErrWouldBlock, ErrDeferred, owed}
	for i, w := range want {
		if ops[i].Err != w {
			t.Fatalf("op %d: got %v, want %v", i, ops[i].Err, w)
		}
	}
	after := m.Stats()
	if after.Counters != before.Counters || after.Entries != before.Entries || after.Sessions != before.Sessions {
		t.Fatalf("BatchNone ops moved the manager: before %+v, after %+v", before, after)
	}
}

// TestExecBatchRefcounts: an entry a batch acquire released again, or one
// a failed batch acquire created, is idle, so the collection deletes it.
func TestExecBatchRefcounts(t *testing.T) {
	m, fc := newFake(t, Config{IdleTTL: time.Millisecond})
	sc := m.NewBatchScratch()

	holder, _ := m.Open(time.Minute)
	if err := m.Acquire(holder, "held", true, 0); err != nil {
		t.Fatal(err)
	}
	ops := []BatchOp{
		{Kind: BatchAcquire, SID: holder, Name: []byte("idle1")},
		{Kind: BatchRelease, SID: holder, Name: []byte("idle1")},
		{Kind: BatchAcquire, SID: 999999, Name: []byte("idle2")}, // expired session
	}
	m.ExecBatch(ops, sc)
	if ops[2].Err != ErrExpired {
		t.Fatalf("expired-session acquire: %v", ops[2].Err)
	}
	fc.Advance(time.Millisecond)
	if n := m.Stats().Entries; n != 1 {
		t.Fatalf("idle entries not collected after IdleTTL: %d left, want the held one", n)
	}
}

// TestExecBatchSteadyStateAllocs: re-acquiring existing entries through
// the batch path must not allocate (names alias the caller's buffer,
// holds recycle, scratch is reused).
func TestExecBatchSteadyStateAllocs(t *testing.T) {
	m := New(Config{})
	defer m.Close()
	sc := m.NewBatchScratch()
	sid, _ := m.Open(time.Minute)

	name := []byte("steady")
	ops := make([]BatchOp, 2)
	// Prime: create the entry and the hold record once.
	ops[0] = BatchOp{Kind: BatchAcquire, SID: sid, Name: name}
	ops[1] = BatchOp{Kind: BatchRelease, SID: sid, Name: name}
	m.ExecBatch(ops, sc)

	allocs := testing.AllocsPerRun(200, func() {
		ops[0] = BatchOp{Kind: BatchAcquire, SID: sid, Name: name}
		ops[1] = BatchOp{Kind: BatchRelease, SID: sid, Name: name}
		m.ExecBatch(ops, sc)
		if ops[0].Err != nil || ops[1].Err != nil {
			t.Fatal(ops[0].Err, ops[1].Err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ExecBatch steady state allocs = %.1f, want 0", allocs)
	}
}

// BenchmarkExecBatchPair measures the batched acquire+release pair cost
// (compare BenchmarkManagerAcquireRelease in the server package).
func BenchmarkExecBatchPair(b *testing.B) {
	m := New(Config{})
	defer m.Close()
	sc := m.NewBatchScratch()
	sid, _ := m.Open(time.Minute)
	name := []byte("bench-key")
	ops := make([]BatchOp, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += 8 {
		for j := 0; j < 8; j++ {
			ops[2*j] = BatchOp{Kind: BatchAcquire, SID: sid, Name: name}
			ops[2*j+1] = BatchOp{Kind: BatchRelease, SID: sid, Name: name}
		}
		m.ExecBatch(ops, sc)
	}
}

// TestParkedAcquireIsOneArrival: an ExecBatch acquire answered
// ErrWouldBlock changed nothing, the contention profile included — the
// continuation's Manager.Acquire (run here exactly as the server's
// worker.park runs it) is the arrival that counts.
func TestParkedAcquireIsOneArrival(t *testing.T) {
	m := newTest(t, slowCfg())
	sc := m.NewBatchScratch()
	holder, waiter := mustOpen(t, m, time.Minute), mustOpen(t, m, time.Minute)

	ops := []BatchOp{
		{Kind: BatchAcquire, Tag: 1, SID: holder, Name: []byte("p"), Excl: true},
		{Kind: BatchAcquire, Tag: 2, SID: waiter, Name: []byte("p"), Excl: true, Wait: -1},
		{Kind: BatchAcquire, Tag: 2, SID: waiter, Name: []byte("p")}, // deferred: not an arrival either
	}
	m.ExecBatch(ops, sc)
	if ops[0].Err != nil || ops[1].Err != ErrWouldBlock || ops[2].Err != ErrDeferred {
		t.Fatalf("batch = %v, %v, %v; want nil, ErrWouldBlock, ErrDeferred", ops[0].Err, ops[1].Err, ops[2].Err)
	}
	if hl := m.HotLocks(1); len(hl) != 1 || hl[0].Acquires != 1 {
		t.Fatalf("after a would-block and a deferred acquire HotLocks = %+v, want 1 arrival", hl)
	}
	done := make(chan error, 1)
	go func() { done <- m.Acquire(waiter, "p", true, -1) }()
	waitQueue(t, m, "p", 1)
	rel := []BatchOp{{Kind: BatchRelease, SID: holder, Name: []byte("p"), Excl: true}}
	m.ExecBatch(rel, sc)
	if rel[0].Err != nil {
		t.Fatalf("release: %v", rel[0].Err)
	}
	if err := <-done; err != nil {
		t.Fatalf("parked acquire: %v", err)
	}
	if hl := m.HotLocks(1); len(hl) != 1 || hl[0].Acquires != 2 {
		t.Fatalf("HotLocks = %+v, want 2 arrivals for 2 acquires", hl)
	}
}

// TestLapsedLeaseRejectedOnEveryOp: once a lease's deadline has passed,
// the first op of any kind through either entry point — ahead of the
// timer, whose callback is late here — is ErrExpired and expires the
// session on the spot: session gone, hold revoked, next waiter granted.
func TestLapsedLeaseRejectedOnEveryOp(t *testing.T) {
	k := []byte("k")
	batch := func(op BatchOp) func(*Manager, uint64) error {
		return func(m *Manager, sid uint64) error {
			ops := []BatchOp{op}
			ops[0].SID = sid
			m.ExecBatch(ops, m.NewBatchScratch())
			return ops[0].Err
		}
	}
	for _, tc := range []struct {
		name string
		op   func(m *Manager, sid uint64) error
	}{
		{"BatchRelease", batch(BatchOp{Kind: BatchRelease, Name: k, Excl: true})},
		{"BatchKeepAlive", batch(BatchOp{Kind: BatchKeepAlive, Lease: int64(time.Minute)})},
		{"BatchAcquire", batch(BatchOp{Kind: BatchAcquire, Name: []byte("other")})},
		{"Release", func(m *Manager, sid uint64) error { return m.Release(sid, "k", true) }},
		{"KeepAlive", func(m *Manager, sid uint64) error { return m.KeepAlive(sid, time.Minute) }},
		{"Acquire", func(m *Manager, sid uint64) error { return m.Acquire(sid, "other", false, 0) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, fc := newFake(t, slowCfg())
			lapsed, next := mustOpen(t, m, time.Second), mustOpen(t, m, time.Minute)
			if err := m.Acquire(lapsed, "k", true, 0); err != nil {
				t.Fatalf("acquire: %v", err)
			}
			granted := blocked(t, m, next, "k", true, -1, 1)
			fc.Skip(time.Second)

			if err := tc.op(m, lapsed); err != ErrExpired {
				t.Fatalf("op on a lapsed lease = %v, want ErrExpired", err)
			}
			if m.session(lapsed) != nil {
				t.Fatal("lapsed session still in the table")
			}
			if err := <-granted; err != nil {
				t.Fatalf("waiter behind the revoked hold: %v", err)
			}
			if snap := m.Stats(); snap.LeaseExpirations != 1 || snap.RevokedHolds != 1 || snap.Releases != 0 {
				t.Fatalf("expirations, revoked holds, releases = %d, %d, %d; want 1, 1, 0",
					snap.LeaseExpirations, snap.RevokedHolds, snap.Releases)
			}
		})
	}
}

// TestFailedTryIsNotAQueueEvent: a try (wait == 0) that fails never
// queued, so through either entry point it counts one timeout and leaves
// nothing in the flight recorder, which attributes queue wait.
func TestFailedTryIsNotAQueueEvent(t *testing.T) {
	cfg := slowCfg()
	cfg.Recorder = obs.NewRecorder(1, 32)
	m := newTest(t, cfg)
	holder, other := mustOpen(t, m, time.Minute), mustOpen(t, m, time.Minute)
	if err := m.Acquire(holder, "k", true, 0); err != nil {
		t.Fatalf("acquire: %v", err)
	}
	if err := m.Acquire(other, "k", false, 0); err != ErrTimeout {
		t.Fatalf("scalar try = %v, want ErrTimeout", err)
	}
	ops := []BatchOp{{Kind: BatchAcquire, SID: other, Name: []byte("k")}}
	m.ExecBatch(ops, m.NewBatchScratch())
	if ops[0].Err != ErrTimeout {
		t.Fatalf("batch try = %v, want ErrTimeout", ops[0].Err)
	}
	if got := m.Stats().Timeouts; got != 2 {
		t.Fatalf("timeouts = %d, want 2 (one per failed try)", got)
	}
	if evs := cfg.Recorder.Events(); len(evs) != 0 {
		t.Fatalf("failed tries left flight events: %+v", evs)
	}
}

// TestWaitingGaugeCountsQueuedAcquires: Stats().Waiting is the number of
// acquires queued on a lock right now — 1 while one is, whatever else
// goes through the try path of either entry point meanwhile, 0 after.
func TestWaitingGaugeCountsQueuedAcquires(t *testing.T) {
	m := newTest(t, slowCfg())
	sc := m.NewBatchScratch()
	holder, other := mustOpen(t, m, time.Minute), mustOpen(t, m, time.Minute)
	if err := m.Acquire(holder, "k", true, 0); err != nil {
		t.Fatalf("acquire: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- m.Acquire(other, "k", true, -1) }()
	waitQueue(t, m, "k", 1)
	for i := 0; i < 100; i++ {
		_ = m.Acquire(holder, "k", false, 0) // fails: held exclusively
		if err := m.Acquire(holder, "free", false, 0); err != nil {
			t.Fatalf("try: %v", err)
		}
		ops := []BatchOp{
			{Kind: BatchAcquire, Tag: 1, SID: holder, Name: []byte("k")},
			{Kind: BatchAcquire, Tag: 2, SID: holder, Name: []byte("k"), Wait: -1},
			{Kind: BatchRelease, Tag: 3, SID: holder, Name: []byte("free")},
		}
		m.ExecBatch(ops, sc)
		if ops[0].Err != ErrTimeout || ops[1].Err != ErrWouldBlock || ops[2].Err != nil {
			t.Fatalf("batch = %v, %v, %v", ops[0].Err, ops[1].Err, ops[2].Err)
		}
		if got := m.Stats().Waiting; got != 1 {
			t.Fatalf("Waiting = %d with one acquire queued, want 1", got)
		}
	}
	if err := m.Release(holder, "k", true); err != nil {
		t.Fatalf("release: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("queued acquire: %v", err)
	}
	if got := m.Stats().Waiting; got != 0 {
		t.Fatalf("Waiting = %d with nothing queued, want 0", got)
	}
}
