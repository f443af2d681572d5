package lockmgr

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fairrw/internal/lockmgr/introspect"
)

// TestStatsRaceHammer pits every observability read path (Stats,
// HotLocks, histogram copies, flight-recorder snapshots) against every
// write path at once: batch execution, scalar contended acquires, and
// lease expiry on short-lived sessions. Under `go test -race` that
// enforces the admin plane's scrape-during-load contract; and every
// snapshot must be one consistent cut: each grant has its wait sample and
// each release its hold sample, whatever was in flight when it was taken.
func TestStatsRaceHammer(t *testing.T) {
	rec := introspect.NewRecorder(4, 64)
	m := newTest(t, Config{
		MaxLease:   time.Second,
		IdleTTL:    5 * time.Millisecond,
		Recorder:   rec,
		SlowLock:   time.Microsecond,
		SlowLockFn: func(string, uint64, bool, time.Duration) {},
	})

	var stop atomic.Bool
	var wg sync.WaitGroup
	start := func(f func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				f()
			}
		}()
	}

	// Batch writer: open/acquire/release/close per iteration.
	for g := 0; g < 2; g++ {
		g := g
		sc := m.NewBatchScratch()
		name := []byte(fmt.Sprintf("batch-%d", g))
		start(func() {
			ops := []BatchOp{
				{Kind: BatchOpen, Lease: int64(time.Second)},
			}
			m.ExecBatch(ops, sc)
			if ops[0].Err != nil {
				return
			}
			sid := ops[0].OutSID
			body := []BatchOp{
				{Kind: BatchAcquire, SID: sid, Name: name, Excl: true},
				{Kind: BatchRelease, SID: sid, Name: name, Excl: true},
				{Kind: BatchAcquire, SID: sid, Name: name},
				{Kind: BatchRelease, SID: sid, Name: name},
				{Kind: BatchCloseSession, SID: sid},
			}
			m.ExecBatch(body, sc)
		})
	}

	// Scalar writers: contended acquire/release pairs on a shared name.
	for g := 0; g < 2; g++ {
		sid := mustOpen(t, m, time.Second)
		start(func() {
			if err := m.Acquire(sid, "shared", true, 50*time.Millisecond); err == nil {
				m.Release(sid, "shared", true)
			}
			m.KeepAlive(sid, time.Second)
		})
	}

	// Expiry churn: sessions opened with a 1ms lease and abandoned while
	// holding, so the timer revokes concurrently with everything.
	start(func() {
		sid, err := m.Open(time.Millisecond)
		if err != nil {
			return
		}
		m.Acquire(sid, "expiring", false, 0)
		time.Sleep(2 * time.Millisecond)
	})

	// Readers: the scrape surface.
	var scrapes, broken atomic.Uint64
	start(func() {
		s := m.Stats()
		scrapes.Add(1)
		if s.SharedGrants+s.ExclGrants != s.WaitCount || s.Releases != s.HoldCount {
			if broken.Add(1) == 1 {
				t.Errorf("inconsistent snapshot: %d+%d grants, %d wait samples; %d releases, %d hold samples",
					s.SharedGrants, s.ExclGrants, s.WaitCount, s.Releases, s.HoldCount)
			}
		}
	})
	start(func() { m.HotLocks(8) })
	start(func() {
		m.WaitHistogram()
		m.HoldHistogram()
		rec.Events()
	})

	time.Sleep(300 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	if n := broken.Load(); n > 0 {
		t.Errorf("%d of %d snapshots were inconsistent", n, scrapes.Load())
	}
	snap := m.Stats()
	if snap.SharedGrants+snap.ExclGrants == 0 {
		t.Fatal("hammer made no grants; test is vacuous")
	}
}
