package fairlock

import (
	"os"
	"os/exec"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestMutualExclusion(t *testing.T) {
	var m RWMutex
	var inside int32
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				m.Lock()
				if n := atomic.AddInt32(&inside, 1); n != 1 {
					t.Errorf("%d writers inside", n)
				}
				atomic.AddInt32(&inside, -1)
				m.Unlock()
			}
		}()
	}
	wg.Wait()
}

func TestReadersShare(t *testing.T) {
	var m RWMutex
	var inside, peak int32
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			m.RLock()
			n := atomic.AddInt32(&inside, 1)
			for {
				p := atomic.LoadInt32(&peak)
				if n <= p || atomic.CompareAndSwapInt32(&peak, p, n) {
					break
				}
			}
			time.Sleep(10 * time.Millisecond)
			atomic.AddInt32(&inside, -1)
			m.RUnlock()
		}()
	}
	close(start)
	wg.Wait()
	if peak < 2 {
		t.Fatalf("peak concurrent readers = %d, want >= 2", peak)
	}
}

func TestWriterExcludesReaders(t *testing.T) {
	var m RWMutex
	var writerIn int32
	var wg sync.WaitGroup
	m.Lock()
	atomic.StoreInt32(&writerIn, 1)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.RLock()
			if atomic.LoadInt32(&writerIn) == 1 {
				t.Error("reader admitted while writer holds")
			}
			m.RUnlock()
		}()
	}
	time.Sleep(20 * time.Millisecond)
	atomic.StoreInt32(&writerIn, 0)
	m.Unlock()
	wg.Wait()
}

func TestWriterNotStarvedByReaders(t *testing.T) {
	var m RWMutex
	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Continuous reader churn.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				m.RLock()
				time.Sleep(time.Millisecond)
				m.RUnlock()
			}
		}()
	}
	time.Sleep(5 * time.Millisecond)
	done := make(chan struct{})
	go func() {
		m.Lock()
		m.Unlock()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("writer starved by reader churn")
	}
	close(stop)
	wg.Wait()
}

func TestFIFOOrder(t *testing.T) {
	var m RWMutex
	m.Lock()
	var order []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 5; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.Lock()
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			m.Unlock()
		}()
		time.Sleep(20 * time.Millisecond) // enforce distinct arrival order
	}
	m.Unlock()
	wg.Wait()
	for i := range order {
		if order[i] != i {
			t.Fatalf("admission order %v, want FIFO", order)
		}
	}
}

func TestLateReaderQueuesBehindWriter(t *testing.T) {
	var m RWMutex
	m.RLock() // active reader batch
	writerIn := make(chan struct{})
	readerIn := make(chan struct{})
	go func() {
		m.Lock()
		close(writerIn)
		time.Sleep(10 * time.Millisecond)
		m.Unlock()
	}()
	time.Sleep(20 * time.Millisecond) // writer is now queued
	go func() {
		m.RLock() // must NOT jump the queued writer
		close(readerIn)
		m.RUnlock()
	}()
	time.Sleep(20 * time.Millisecond)
	select {
	case <-readerIn:
		t.Fatal("late reader jumped a queued writer (not task-fair)")
	default:
	}
	m.RUnlock()
	<-writerIn
	<-readerIn
}

func TestTryLock(t *testing.T) {
	var m RWMutex
	if !m.TryLock() {
		t.Fatal("TryLock on free lock failed")
	}
	if m.TryLock() {
		t.Fatal("TryLock on held lock succeeded")
	}
	if m.TryRLock() {
		t.Fatal("TryRLock under writer succeeded")
	}
	m.Unlock()
	if !m.TryRLock() {
		t.Fatal("TryRLock on free lock failed")
	}
	if !m.TryRLock() {
		t.Fatal("second TryRLock failed")
	}
	if m.TryLock() {
		t.Fatal("TryLock with readers succeeded")
	}
	m.RUnlock()
	m.RUnlock()
}

// TestTryLockRespectsSlotReaders pins TryLock against readers that are
// visible only in the BRAVO slot table. That happens in two idle states:
// read-biased (state == biasBit), and — after a timed write rolled back
// mid-drain — state == 0 with slot credits still live. In both, TryLock
// must fail promptly: a naive grant either blocks on the reader's critical
// section (forever, when the caller is that reader — an upgrade attempt)
// or reports success while a reader holds the lock.
func TestTryLockRespectsSlotReaders(t *testing.T) {
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
	if m.TryLock() {
		t.Fatal("TryLock succeeded while a slot reader holds the lock (biased idle)")
	}
	// Time out a write acquisition: the grant rolls back mid-drain,
	// leaving state == 0 with the slot credit still outstanding.
	if m.TryLockFor(10 * time.Millisecond) {
		t.Fatal("TryLockFor succeeded while this goroutine holds a read lock")
	}
	if s := m.state.Load(); s != 0 {
		t.Fatalf("state %#x after rollback, want 0", s)
	}
	start := time.Now()
	if m.TryLock() {
		t.Fatal("TryLock succeeded against a live slot reader after rollback")
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("TryLock blocked %v against a slot reader, want prompt failure", d)
	}
	if _, w := m.Stats(); w != w0 {
		t.Fatalf("failed trylocks counted as grants: writes %d, want %d", w, w0)
	}
	m.RUnlock()

	// With the reader gone the same idle state must grant again.
	if !m.TryLock() {
		t.Fatal("TryLock failed on a free lock after the reader left")
	}
	m.Unlock()
	m.RLock()
	m.RUnlock()
	if m.QueueLen() != 0 {
		t.Fatalf("queue len %d after quiescence, want 0", m.QueueLen())
	}
}

func TestTryLockForTimeout(t *testing.T) {
	var m RWMutex
	m.Lock()
	t0 := time.Now()
	if m.TryLockFor(30 * time.Millisecond) {
		t.Fatal("TryLockFor succeeded against a holder")
	}
	if d := time.Since(t0); d < 25*time.Millisecond {
		t.Fatalf("TryLockFor returned after %v, before the deadline", d)
	}
	m.Unlock()
	if !m.TryLockFor(time.Second) {
		t.Fatal("TryLockFor on free lock failed")
	}
	m.Unlock()
	if m.QueueLen() != 0 {
		t.Fatalf("queue not empty after timeout: %d", m.QueueLen())
	}
}

func TestTimedOutWaiterUnblocksFollowers(t *testing.T) {
	var m RWMutex
	m.RLock()
	// Writer with a short timeout queues, then a reader queues behind it.
	go m.TryLockFor(20 * time.Millisecond)
	time.Sleep(5 * time.Millisecond)
	got := make(chan struct{})
	go func() {
		m.RLock()
		close(got)
		m.RUnlock()
	}()
	// After the writer times out, the queued reader must be admitted even
	// though the original read hold is still active.
	select {
	case <-got:
	case <-time.After(time.Second):
		t.Fatal("reader stuck behind a timed-out writer")
	}
	m.RUnlock()
}

func TestUnlockPanics(t *testing.T) {
	var m RWMutex
	for _, f := range []func(){m.Unlock, m.RUnlock} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("unlock of unheld lock did not panic")
				}
			}()
			f()
		}()
	}
}

func TestStats(t *testing.T) {
	var m RWMutex
	m.Lock()
	m.Unlock()
	m.RLock()
	m.RLock()
	m.RUnlock()
	m.RUnlock()
	r, w := m.Stats()
	if r != 2 || w != 1 {
		t.Fatalf("stats = (%d,%d), want (2,1)", r, w)
	}
}

// Property: any interleaving of n read/write pairs leaves the lock free.
func TestQuickAllReleasedFree(t *testing.T) {
	f := func(ops []bool) bool {
		var m RWMutex
		var wg sync.WaitGroup
		for _, write := range ops {
			write := write
			wg.Add(1)
			go func() {
				defer wg.Done()
				if write {
					m.Lock()
					m.Unlock()
				} else {
					m.RLock()
					m.RUnlock()
				}
			}()
		}
		wg.Wait()
		return m.TryLock() && func() bool { m.Unlock(); return true }() && m.QueueLen() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: reader/writer counters never go inconsistent under load.
func TestStressMixed(t *testing.T) {
	var m RWMutex
	var data int64
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 300; j++ {
				switch {
				case i%4 == 0:
					m.Lock()
					data++
					m.Unlock()
				case i%4 == 1 && j%3 == 0:
					if m.TryLockFor(time.Millisecond) {
						data++
						m.Unlock()
					}
				default:
					m.RLock()
					_ = data
					m.RUnlock()
				}
			}
		}()
	}
	wg.Wait()
	if m.QueueLen() != 0 {
		t.Fatalf("queue len %d after quiescence", m.QueueLen())
	}
}

// TestSlotsSpreadGoroutines: goroutines started together publish their
// biased read credits in distinct BRAVO slots, and each one's RUnlock
// finds its credit in the slot its RLock published it to.
//
// The spread holds for goroutines still on the stacks they started on. New
// goroutines reuse exited ones' stacks, which after other tests lie
// anywhere, so the check runs in a fresh process: this test binary, re-run
// on this test alone. A stack that grows moves to wherever the runtime
// puts it (under -race every one grows before its RLock); then the spread
// is only logged. The pairing rate is counted (creditHunts), not assumed,
// after each goroutine's first pair, across which its stack may still move.
func TestSlotsSpreadGoroutines(t *testing.T) {
	if os.Getenv("FAIRLOCK_SPREAD_CHILD") == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestSlotsSpreadGoroutines$", "-test.v", "-test.count=1")
		cmd.Env = append(os.Environ(), "FAIRLOCK_SPREAD_CHILD=1")
		out, err := cmd.CombinedOutput()
		t.Logf("fresh process:\n%s", out)
		if err != nil {
			t.Fatalf("fresh process: %v", err)
		}
		return
	}
	var m RWMutex
	for i := 0; i < 500; i++ { // enough central grants to enable the bias
		m.RLock()
		m.RUnlock()
	}
	if m.state.Load()&biasBit == 0 {
		t.Fatal("read bias did not enable after sustained read traffic")
	}
	const g, pairs = 4, 1000
	var moved atomic.Int32
	var held, first, done sync.WaitGroup
	release, loop := make(chan struct{}), make(chan struct{})
	held.Add(g)
	first.Add(g)
	done.Add(g)
	for i := 0; i < g; i++ {
		go func() {
			defer done.Done()
			var x byte
			start := uintptr(unsafe.Pointer(&x))
			m.RLock()
			if uintptr(unsafe.Pointer(&x)) != start {
				moved.Add(1)
			}
			held.Done()
			<-release
			m.RUnlock()
			first.Done()
			<-loop
			for j := 0; j < pairs; j++ {
				m.RLock()
				m.RUnlock()
			}
		}()
	}
	held.Wait()
	var used []int
	for i := range m.slots {
		if slotReaders(m.slots[i].word.Load()) != 0 {
			used = append(used, i)
		}
	}
	close(release)
	first.Wait()
	hunts := creditHunts.Load()
	close(loop)
	done.Wait()
	switch {
	case moved.Load() > 0:
		t.Logf("%d of %d stacks moved before RLock; their credits sit in slots %v", moved.Load(), g, used)
	case len(used) != g:
		t.Errorf("%d goroutines hold read credits in slots %v, want %d distinct slots", g, used, g)
	}
	missed := creditHunts.Load() - hunts
	t.Logf("%d of %d RUnlocks hunted for their credit", missed, g*pairs)
	if missed != 0 {
		t.Errorf("%d of %d RUnlocks missed their RLock's slot", missed, g*pairs)
	}
	if !m.slotsEmpty() || m.state.Load()&readerMask != 0 {
		t.Fatal("read credits left over after every reader unlocked")
	}
}
