package fairlock

import (
	"sync"
	"testing"
	"time"
)

// waitQueueLen spins until l's queue holds exactly n waiters.
func waitQueueLen(t *testing.T, l rwLock, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for l.QueueLen() != n {
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached %d waiters (QueueLen=%d)", n, l.QueueLen())
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// TestDifferentialTimedOutWriter queues W(timed), R, R, W behind a write
// hold and lets the timed writer expire mid-queue. The remaining admission
// order and batching must match the reference model: the timeout removes
// exactly the expired waiter and nothing else.
func TestDifferentialTimedOutWriter(t *testing.T) {
	run := func(l rwLock) string {
		l.Lock()
		res := make(chan bool, 1)
		go func() { res <- l.TryLockFor(50 * time.Millisecond) }()
		waitQueueLen(t, l, 1)

		var mu sync.Mutex
		var order []grantEvent
		var wg sync.WaitGroup
		for i, write := range []bool{false, false, true} {
			i, write := i, write
			wg.Add(1)
			go func() {
				defer wg.Done()
				if write {
					l.Lock()
				} else {
					l.RLock()
				}
				mu.Lock()
				order = append(order, grantEvent{write, i})
				mu.Unlock()
				if write {
					l.Unlock()
				} else {
					l.RUnlock()
				}
			}()
			waitQueueLen(t, l, i+2)
		}

		if got := <-res; got {
			t.Fatal("timed writer acquired a write-held lock")
		}
		waitQueueLen(t, l, 3) // the expired waiter left; everyone else still queued
		l.Unlock()
		wg.Wait()
		return canonical(order)
	}
	var a RWMutex
	var b RefRWMutex
	if got, want := run(&a), run(&b); got != want {
		t.Fatalf("post-timeout admission diverged: new=%s ref=%s", got, want)
	}
}

// TestDifferentialTimedReader drives TryRLockFor through expiry behind a
// write hold in both implementations: the timed reader must report false,
// leave the queue without disturbing the waiters behind it, and the
// remaining admission order must match the reference model. A second timed
// reader with a comfortable deadline must be granted (true) in both.
func TestDifferentialTimedReader(t *testing.T) {
	run := func(l rwLock) string {
		l.Lock()
		timedOut := make(chan bool, 1)
		go func() { timedOut <- l.TryRLockFor(20 * time.Millisecond) }()
		waitQueueLen(t, l, 1)

		var mu sync.Mutex
		var order []grantEvent
		var wg sync.WaitGroup
		for i, write := range []bool{true, false} {
			i, write := i, write
			wg.Add(1)
			go func() {
				defer wg.Done()
				if write {
					l.Lock()
				} else {
					l.RLock()
				}
				mu.Lock()
				order = append(order, grantEvent{write, i})
				mu.Unlock()
				if write {
					l.Unlock()
				} else {
					l.RUnlock()
				}
			}()
			waitQueueLen(t, l, i+2)
		}
		if ok := <-timedOut; ok {
			t.Fatal("timed reader unexpectedly acquired while writer held")
		}
		waitQueueLen(t, l, 2)
		l.Unlock()
		wg.Wait()

		// Deadline comfortably after the release: the grant must win.
		if !l.TryRLockFor(5 * time.Second) {
			t.Fatal("timed reader on free lock failed")
		}
		l.RUnlock()
		return canonical(order)
	}
	var a RWMutex
	var b RefRWMutex
	if got, want := run(&a), run(&b); got != want {
		t.Fatalf("post-reader-timeout admission diverged: new=%s ref=%s", got, want)
	}
}
