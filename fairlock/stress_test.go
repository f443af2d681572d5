package fairlock

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fairrw/internal/fairq"
)

// TestStressGrantVsTimeoutRW hammers the grant-vs-timeout race in
// RWMutex.tryFor with microsecond deadlines: a timed waiter whose grant
// races its timer must either cleanly leave the queue or end up holding
// the lock (and release it correctly). Exclusion is checked on every
// acquisition; run under -race in CI.
func TestStressGrantVsTimeoutRW(t *testing.T) {
	var m RWMutex
	var writers, readers int32
	var wg sync.WaitGroup
	check := func(write bool) {
		if write {
			if w := atomic.AddInt32(&writers, 1); w != 1 {
				t.Errorf("%d writers inside", w)
			}
			if r := atomic.LoadInt32(&readers); r != 0 {
				t.Errorf("writer inside with %d readers", r)
			}
			atomic.AddInt32(&writers, -1)
		} else {
			atomic.AddInt32(&readers, 1)
			if w := atomic.LoadInt32(&writers); w != 0 {
				t.Errorf("reader inside with %d writers", w)
			}
			atomic.AddInt32(&readers, -1)
		}
	}
	iters := 400
	if testing.Short() {
		iters = 100
	}
	for g := 0; g < 12; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < iters; i++ {
				d := time.Duration(rng.Intn(50)) * time.Microsecond
				switch g % 4 {
				case 0: // timed writer racing grants against the deadline
					if m.TryLockFor(d) {
						check(true)
						m.Unlock()
					}
				case 1: // timed reader
					if m.TryRLockFor(d) {
						check(false)
						m.RUnlock()
					}
				case 2: // blocking writer keeps the queue churning
					m.Lock()
					check(true)
					m.Unlock()
				default: // blocking reader
					m.RLock()
					check(false)
					m.RUnlock()
				}
			}
		}()
	}
	wg.Wait()
	if n := m.QueueLen(); n != 0 {
		t.Fatalf("queue len %d after quiescence", n)
	}
	if !m.TryLock() {
		t.Fatal("lock not free after quiescence")
	}
	m.Unlock()
}

// TestStressGrantVsTimeoutMutex is the Mutex counterpart: timed waiters
// losing the race must still take and release ownership exactly once.
func TestStressGrantVsTimeoutMutex(t *testing.T) {
	var m Mutex
	var inside int32
	var acquired uint64
	var wg sync.WaitGroup
	iters := 400
	if testing.Short() {
		iters = 100
	}
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < iters; i++ {
				ok := true
				if g%2 == 0 {
					ok = m.TryLockFor(time.Duration(rng.Intn(50)) * time.Microsecond)
				} else {
					m.Lock()
				}
				if ok {
					if n := atomic.AddInt32(&inside, 1); n != 1 {
						t.Errorf("%d holders inside", n)
					}
					atomic.AddInt32(&inside, -1)
					atomic.AddUint64(&acquired, 1)
					m.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if n := m.QueueLen(); n != 0 {
		t.Fatalf("queue len %d after quiescence", n)
	}
	if g := m.Grants(); g != acquired {
		t.Fatalf("grants=%d but %d acquisitions observed", g, acquired)
	}
}

// TestStressBiasRevocation drives enough read traffic to enable the BRAVO
// bias, then keeps writers arriving so the bias is revoked and re-enabled
// repeatedly, checking exclusion throughout (run under -race in CI).
func TestStressBiasRevocation(t *testing.T) {
	var m RWMutex
	var data, sum int64
	var wg sync.WaitGroup
	iters := 3000
	if testing.Short() {
		iters = 500
	}
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if g == 0 && i%200 == 0 {
					m.Lock()
					data++
					m.Unlock()
				} else {
					m.RLock()
					atomic.AddInt64(&sum, data) // -race flags any writer overlap
					m.RUnlock()
				}
			}
		}()
	}
	wg.Wait()
	r, w := m.Stats()
	want := uint64(8*iters) - uint64((iters+199)/200)
	if r != want {
		t.Fatalf("read grants = %d, want %d", r, want)
	}
	if w != uint64((iters+199)/200) {
		t.Fatalf("write grants = %d, want %d", w, (iters+199)/200)
	}
	_ = sum
}

// TestStressRLockerCrossGoroutine locks via RLocker on one goroutine and
// unlocks on another: read credits must migrate between slots and the
// central count without losing the aggregate.
func TestStressRLockerCrossGoroutine(t *testing.T) {
	var m RWMutex
	rl := m.RLocker()
	handoff := make(chan struct{}, 4)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			rl.Lock()
			handoff <- struct{}{}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			<-handoff
			rl.Unlock()
		}
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("cross-goroutine RLock/RUnlock wedged")
	}
	m.Lock() // all credits must be gone: a writer can still get in
	m.Unlock()
}

// TestQueueMemoryBounded is the regression test for the old slice-queue
// retention (m.queue = m.queue[1:] kept the backing array alive) and the
// per-acquire channel allocation: under sustained contended churn the
// pooled intrusive queue must not allocate per operation.
func TestQueueMemoryBounded(t *testing.T) {
	const (
		goroutines = 4
		rounds     = 5000
	)
	churn := func() {
		var m Mutex
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					m.Lock()
					m.Unlock()
				}
			}()
		}
		wg.Wait()
	}
	churn() // warm the waiter pool and runtime caches
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	churn()
	runtime.ReadMemStats(&after)
	perOp := float64(after.Mallocs-before.Mallocs) / float64(goroutines*rounds)
	// The old implementation allocated >= 1 object (a channel) per
	// contended acquire plus slice growth; the pooled queue amortizes to
	// (near) zero. Allow generous slack for runtime-internal allocation.
	if perOp > 0.5 {
		t.Fatalf("contended churn allocates %.3f objects/op, want ~0", perOp)
	}
}

// TestTimedRemovalIsO1 guards the O(1) unlink: a large group of timed
// waiters expiring together must not take quadratic time (the old slice
// scan was O(n) per removal).
func TestTimedRemovalIsO1(t *testing.T) {
	var m Mutex
	m.Lock()
	const n = 2000
	var wg sync.WaitGroup
	results := make(chan bool, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results <- m.TryLockFor(30 * time.Millisecond)
		}()
	}
	start := time.Now()
	wg.Wait()
	elapsed := time.Since(start)
	for i := 0; i < n; i++ {
		if <-results {
			t.Fatal("timed waiter acquired a held mutex")
		}
	}
	if m.QueueLen() != 0 {
		t.Fatalf("queue len %d after mass timeout", m.QueueLen())
	}
	m.Unlock()
	if elapsed > 10*time.Second {
		t.Fatalf("mass timeout took %v", elapsed)
	}
}

// TestTimedWriteUpgradeTimesOut pins the deadline behavior of TryLockFor
// when the calling goroutine already holds a read lock via the BRAVO slot
// fast path. The central reader count is then zero, so the timed writer
// wins the writer bit immediately — but its slot drain must be bounded by
// the deadline and the grant rolled back, matching the reference lock
// (which queues the writer behind the reader and times it out). A naive
// unbounded drain self-deadlocks here.
func TestTimedWriteUpgradeTimesOut(t *testing.T) {
	var m RWMutex
	for i := 0; i < 500; i++ { // enough central grants to enable the bias
		m.RLock()
		m.RUnlock()
	}
	if m.state.Load()&biasBit == 0 {
		t.Fatal("read bias did not enable after sustained read traffic")
	}
	_, w0 := m.Stats()

	m.RLock() // slot-path read credit held by this goroutine
	start := time.Now()
	if m.TryLockFor(20 * time.Millisecond) {
		t.Fatal("TryLockFor succeeded while this goroutine holds a read lock")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("TryLockFor took %v, want ~20ms", d)
	}
	if _, w := m.Stats(); w != w0 {
		t.Fatalf("rolled-back grant still counted: writes %d, want %d", w, w0)
	}
	m.RUnlock()

	// The rollback must leave the lock fully usable.
	if !m.TryLockFor(time.Second) {
		t.Fatal("TryLockFor failed on a free lock after rollback")
	}
	m.Unlock()
	m.RLock()
	m.RUnlock()
	if m.QueueLen() != 0 {
		t.Fatalf("queue len %d after rollback, want 0", m.QueueLen())
	}
}

// TestWaiterPoolHygiene is the regression test for recycled waiter nodes
// leaking state between lives: putWaiter must clear the mode, the links,
// and any unconsumed grant token, so a node reused by a different lock or
// mode starts clean.
func TestWaiterPoolHygiene(t *testing.T) {
	var q fairq.Queue[chan struct{}]
	before, w, after := newWaiter(false), newWaiter(true), newWaiter(false)
	for _, n := range []*waiter{before, w, after} {
		q.Enqueue(n) // w is linked both ways
	}
	if w.Next() != after || !q.Queued(w) {
		t.Fatal("setup: w is not linked in the middle of the queue")
	}
	w.V <- struct{}{} // simulate an unconsumed grant token
	putWaiter(w)
	if w.Write || w.Next() != nil || new(fairq.Queue[chan struct{}]).Queued(w) {
		t.Fatalf("recycled waiter retains state: %+v", w)
	}
	select {
	case <-w.V:
		t.Fatal("recycled waiter retains a grant token")
	default:
	}
	if w.V == nil || cap(w.V) != 1 {
		t.Fatal("recycled waiter lost its reusable ready channel")
	}
}

// TestStressCancelRevocation mixes cancellable acquires with the spin
// and BRAVO bias revocation at small timeouts, checking exclusion on
// every acquisition (run with -race and GOMAXPROCS=8 in CI).
func TestStressCancelRevocation(t *testing.T) {
	var m RWMutex
	var writers, readers int32
	check := func(write bool) {
		if write {
			if w := atomic.AddInt32(&writers, 1); w != 1 {
				t.Errorf("%d writers inside", w)
			}
			if r := atomic.LoadInt32(&readers); r != 0 {
				t.Errorf("writer inside with %d readers", r)
			}
			atomic.AddInt32(&writers, -1)
		} else {
			atomic.AddInt32(&readers, 1)
			if w := atomic.LoadInt32(&writers); w != 0 {
				t.Errorf("reader inside with %d writers", w)
			}
			atomic.AddInt32(&readers, -1)
		}
	}
	iters := 300
	if testing.Short() {
		iters = 80
	}
	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < iters; i++ {
				switch g % 4 {
				case 0: // cancellable writer, sometimes already cancelled
					cancel := make(chan struct{})
					if rng.Intn(4) == 0 {
						close(cancel)
					} else {
						time.AfterFunc(time.Duration(rng.Intn(60))*time.Microsecond,
							func() { close(cancel) })
					}
					if m.LockCancel(cancel) {
						check(true)
						m.Unlock()
					}
				case 1: // cancellable reader
					cancel := make(chan struct{})
					time.AfterFunc(time.Duration(rng.Intn(60))*time.Microsecond,
						func() { close(cancel) })
					if m.RLockCancel(cancel) {
						check(false)
						m.RUnlock()
					}
				case 2: // writer bursts keep revoking the bias
					m.Lock()
					check(true)
					m.Unlock()
				default: // read traffic re-enables the bias and feeds batches
					for j := 0; j < 8; j++ {
						m.RLock()
						check(false)
						m.RUnlock()
					}
				}
			}
		}()
	}
	wg.Wait()
	if n := m.QueueLen(); n != 0 {
		t.Fatalf("queue len %d after quiescence", n)
	}
	m.Lock() // the lock must still be fully usable
	m.Unlock()
}
