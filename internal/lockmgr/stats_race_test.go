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
// lease expiry on short-lived sessions. It asserts nothing beyond "no
// error, no panic" — its teeth are `go test -race`, which is how the
// admin plane's scrape-during-load contract is enforced.
func TestStatsRaceHammer(t *testing.T) {
	rec := introspect.NewRecorder(4, 64)
	m := newTest(t, Config{
		DefaultLease: time.Second,
		MaxLease:     time.Second,
		IdleTTL:      5 * time.Millisecond,
		Recorder:     rec,
		SlowLock:     time.Microsecond,
		SlowLockFn:   func(string, uint64, bool, time.Duration) {},
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
	start(func() { m.Stats() })
	start(func() { m.HotLocks(8) })
	start(func() {
		m.WaitHistogram()
		m.HoldHistogram()
		rec.Events()
	})

	time.Sleep(300 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	snap := m.Stats()
	if snap.SharedGrants+snap.ExclGrants == 0 {
		t.Fatal("hammer made no grants; test is vacuous")
	}
}
