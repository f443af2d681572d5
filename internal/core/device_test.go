package core

import (
	"testing"

	"fairrw/internal/machine"
	"fairrw/internal/memmodel"
	"fairrw/internal/sim"
)

func newA(t *testing.T, opt Options) (*machine.Machine, *Device) {
	t.Helper()
	m := machine.ModelA()
	d := New(m, opt)
	return m, d
}

func newB(t *testing.T, opt Options) (*machine.Machine, *Device) {
	t.Helper()
	m := machine.ModelB()
	d := New(m, opt)
	return m, d
}

// checker tracks critical-section invariants: at most one writer, never a
// writer concurrent with readers.
type checker struct {
	t       *testing.T
	writers int
	readers int
	maxRead int
}

func (c *checker) enter(write bool) {
	if write {
		c.writers++
		if c.writers > 1 {
			c.t.Errorf("two writers in the critical section")
		}
		if c.readers > 0 {
			c.t.Errorf("writer entered with %d readers inside", c.readers)
		}
	} else {
		c.readers++
		if c.writers > 0 {
			c.t.Errorf("reader entered with a writer inside")
		}
		if c.readers > c.maxRead {
			c.maxRead = c.readers
		}
	}
}

func (c *checker) exit(write bool) {
	if write {
		c.writers--
	} else {
		c.readers--
	}
}

func TestWriteLockUncontended(t *testing.T) {
	m, d := newA(t, Options{})
	lock := m.Mem.AllocLine()
	acquired := false
	m.Spawn("t", 1, 0, func(c *machine.Ctx) {
		c.HwLock(lock, true)
		acquired = true
		c.HwUnlock(lock, true)
		// Re-acquire after a full release round-trips correctly.
		c.HwLock(lock, true)
		c.HwUnlock(lock, true)
	})
	m.Run()
	if !acquired {
		t.Fatal("lock never acquired")
	}
	if d.Stats.Grants < 2 {
		t.Fatalf("grants = %d, want >= 2", d.Stats.Grants)
	}
	// Both acquisitions were uncontended: no direct transfers.
	if d.Stats.DirectXfers != 0 {
		t.Fatalf("unexpected direct transfers: %d", d.Stats.DirectXfers)
	}
}

func TestWriteLockMutualExclusion(t *testing.T) {
	m, _ := newA(t, Options{})
	lock := m.Mem.AllocLine()
	ck := &checker{t: t}
	done := 0
	for i := 0; i < 8; i++ {
		tid := uint64(i + 1)
		core := i
		m.Spawn("t", tid, core, func(c *machine.Ctx) {
			for j := 0; j < 20; j++ {
				c.HwLock(lock, true)
				ck.enter(true)
				c.Compute(50)
				ck.exit(true)
				c.HwUnlock(lock, true)
				c.Compute(20)
			}
			done++
		})
	}
	m.Run()
	if done != 8 {
		t.Fatalf("done = %d, want 8 (deadlock?)", done)
	}
}

func TestContendedTransferIsDirect(t *testing.T) {
	m, d := newA(t, Options{})
	lock := m.Mem.AllocLine()
	for i := 0; i < 4; i++ {
		tid := uint64(i + 1)
		core := i
		m.Spawn("t", tid, core, func(c *machine.Ctx) {
			for j := 0; j < 10; j++ {
				c.HwLock(lock, true)
				c.Compute(200)
				c.HwUnlock(lock, true)
			}
		})
	}
	m.Run()
	if d.Stats.DirectXfers == 0 {
		t.Fatal("contended handoffs should use direct LCU-to-LCU transfers")
	}
}

func TestReadersShareWritersExclude(t *testing.T) {
	m, _ := newA(t, Options{})
	lock := m.Mem.AllocLine()
	ck := &checker{t: t}
	for i := 0; i < 12; i++ {
		tid := uint64(i + 1)
		core := i
		write := i%4 == 0 // 3 writers, 9 readers
		m.Spawn("t", tid, core, func(c *machine.Ctx) {
			for j := 0; j < 15; j++ {
				c.HwLock(lock, write)
				ck.enter(write)
				c.Compute(100)
				ck.exit(write)
				c.HwUnlock(lock, write)
				c.Compute(30)
			}
		})
	}
	m.Run()
	if ck.maxRead < 2 {
		t.Fatalf("max concurrent readers = %d; readers never actually shared", ck.maxRead)
	}
}

func TestReaderConcurrencyGrantChain(t *testing.T) {
	// All readers: everyone should hold simultaneously at some point.
	m, _ := newA(t, Options{})
	lock := m.Mem.AllocLine()
	ck := &checker{t: t}
	hold := m.NewBarrier(6)
	for i := 0; i < 6; i++ {
		tid := uint64(i + 1)
		core := i
		m.Spawn("t", tid, core, func(c *machine.Ctx) {
			c.HwLock(lock, false)
			ck.enter(false)
			hold.Arrive(c) // forces overlap: all must be inside together
			ck.exit(false)
			c.HwUnlock(lock, false)
		})
	}
	m.Run()
	if ck.maxRead != 6 {
		t.Fatalf("max concurrent readers = %d, want 6", ck.maxRead)
	}
}

func TestWriterNotStarvedByReaders(t *testing.T) {
	// A continuous stream of readers must not starve a writer: the queue
	// ensures the writer gets in (Section III-B's fairness property).
	m, _ := newA(t, Options{})
	lock := m.Mem.AllocLine()
	var writerDone sim.Time
	stop := false
	for i := 0; i < 6; i++ {
		tid := uint64(i + 1)
		core := i
		m.Spawn("reader", tid, core, func(c *machine.Ctx) {
			for !stop {
				c.HwLock(lock, false)
				c.Compute(300)
				c.HwUnlock(lock, false)
				c.Compute(10) // re-request almost immediately
			}
		})
	}
	m.Spawn("writer", 100, 7, func(c *machine.Ctx) {
		c.Compute(2_000) // let readers churn first
		c.HwLock(lock, true)
		writerDone = c.P.Now()
		c.HwUnlock(lock, true)
		stop = true
	})
	m.K.RunUntil(3_000_000)
	if writerDone == 0 {
		t.Fatal("writer starved by readers")
	}
	if writerDone > 1_000_000 {
		t.Fatalf("writer admitted only at %d; fairness is too weak", writerDone)
	}
}

func TestRdRelReacquire(t *testing.T) {
	// An intermediate reader that released can re-acquire in read mode
	// without remote traffic while awaiting the head token (Section III-B).
	m, d := newA(t, Options{})
	lock := m.Mem.AllocLine()

	// Thread 1 takes read and holds long (head). Threads 2..3 read behind it.
	m.Spawn("head", 1, 0, func(c *machine.Ctx) {
		c.HwLock(lock, false)
		c.Compute(30_000)
		c.HwUnlock(lock, false)
	})
	reacquired := false
	m.Spawn("mid", 2, 1, func(c *machine.Ctx) {
		c.Compute(500)
		c.HwLock(lock, false)
		c.Compute(100)
		c.HwUnlock(lock, false) // head still holds: entry -> RD_REL
		req0 := d.Stats.Requests
		c.HwLock(lock, false) // re-acquire: must be local
		if d.Stats.Requests != req0 {
			t.Error("re-acquire of RD_REL entry went remote")
		}
		reacquired = true
		c.HwUnlock(lock, false)
	})
	m.Run()
	if !reacquired {
		t.Fatal("mid reader failed to re-acquire")
	}
}

func TestTrylockExpiresAndLockMovesOn(t *testing.T) {
	m, d := newA(t, Options{})
	lock := m.Mem.AllocLine()
	var got3 bool
	m.Spawn("holder", 1, 0, func(c *machine.Ctx) {
		c.HwLock(lock, true)
		c.Compute(20_000)
		c.HwUnlock(lock, true)
	})
	m.Spawn("try", 2, 1, func(c *machine.Ctx) {
		c.Compute(100)
		if c.HwTryLock(lock, true, 3) {
			t.Error("trylock should have failed while holder computes")
			c.HwUnlock(lock, true)
		}
		// Thread 2 walks away; its queued entry must not wedge the lock.
	})
	m.Spawn("later", 3, 2, func(c *machine.Ctx) {
		c.Compute(5_000)
		c.HwLock(lock, true)
		got3 = true
		c.HwUnlock(lock, true)
	})
	m.Run()
	if !got3 {
		t.Fatal("lock wedged behind an expired trylock")
	}
	if d.Stats.GrantTimeouts == 0 {
		t.Fatal("expected a grant timeout to skip the aborted trylock entry")
	}
}

func TestMigrationWhileWaiting(t *testing.T) {
	// Section III-C, case (i): a waiting thread migrates; the stale entry
	// passes the grant through and the thread acquires from its new core.
	m, d := newA(t, Options{})
	lock := m.Mem.AllocLine()
	var acquiredOn = -1
	m.Spawn("holder", 1, 0, func(c *machine.Ctx) {
		c.HwLock(lock, true)
		c.Compute(10_000)
		c.HwUnlock(lock, true)
	})
	m.Spawn("migrator", 2, 1, func(c *machine.Ctx) {
		c.Compute(200)
		// Request once (enqueues), then migrate before the grant arrives.
		c.Acq(lock, true)
		c.Migrate(9)
		c.HwLock(lock, true) // re-request from core 9: second queue entry
		acquiredOn = c.Core()
		c.HwUnlock(lock, true)
	})
	m.Run()
	if acquiredOn != 9 {
		t.Fatalf("acquired on core %d, want 9", acquiredOn)
	}
	if d.Stats.GrantTimeouts == 0 {
		t.Fatal("the abandoned entry should have timed out and passed the lock on")
	}
}

func TestMigrationWhileHolding(t *testing.T) {
	// Section III-C, case (ii): the owner migrates and releases remotely.
	m, d := newA(t, Options{})
	lock := m.Mem.AllocLine()
	var second bool
	m.Spawn("owner", 1, 0, func(c *machine.Ctx) {
		c.HwLock(lock, true)
		c.Migrate(5)
		c.Compute(1000)
		c.HwUnlock(lock, true) // remote release from core 5
	})
	m.Spawn("next", 2, 1, func(c *machine.Ctx) {
		c.Compute(100)
		c.HwLock(lock, true)
		second = true
		c.HwUnlock(lock, true)
	})
	m.Run()
	if !second {
		t.Fatal("lock lost after owner migration")
	}
	if d.Stats.RemoteReleases == 0 {
		t.Fatal("expected a remote release")
	}
}

func TestMigratedReaderReleaseForwardedThroughQueue(t *testing.T) {
	// A non-head reader migrates and releases; the release is forwarded
	// along the queue to its original entry (Section III-C).
	m, d := newA(t, Options{})
	lock := m.Mem.AllocLine()
	var writerGot bool
	m.Spawn("head", 1, 0, func(c *machine.Ctx) {
		c.HwLock(lock, false)
		c.Compute(8_000)
		c.HwUnlock(lock, false)
	})
	m.Spawn("migrating-reader", 2, 1, func(c *machine.Ctx) {
		c.Compute(300)
		c.HwLock(lock, false)
		c.Migrate(6)
		c.Compute(500)
		c.HwUnlock(lock, false) // forwarded through the queue
	})
	m.Spawn("writer", 3, 2, func(c *machine.Ctx) {
		c.Compute(600)
		c.HwLock(lock, true)
		writerGot = true
		c.HwUnlock(lock, true)
	})
	m.Run()
	if !writerGot {
		t.Fatal("writer never admitted after migrated reader release")
	}
	if d.Stats.FwdReleases == 0 {
		t.Fatal("expected the release to be forwarded through the queue")
	}
}

func TestLCUOverflowForwardProgress(t *testing.T) {
	// One thread takes more concurrent read locks than its LCU has
	// ordinary entries. Uncontended acquisitions drop their entries, so
	// this needs many *contended* locks; instead, hold write locks which
	// keep entries only when queued — so approximate by taking many locks
	// while another core contends each one, exhausting ordinary slots.
	m, d := newA(t, Options{})
	n := m.P.LCUOrdinary + 4
	locks := make([]memmodel.Addr, n)
	for i := range locks {
		locks[i] = m.Mem.AllocLine()
	}
	finished := false
	// Core 1 holds every lock in write mode for a while, so core 0's
	// requests all stay ISSUED/WAIT and pin LCU entries.
	m.Spawn("holder", 1, 1, func(c *machine.Ctx) {
		for _, a := range locks {
			c.HwLock(a, true)
		}
		c.Compute(30_000)
		for _, a := range locks {
			c.HwUnlock(a, true)
		}
	})
	m.Spawn("strained", 2, 0, func(c *machine.Ctx) {
		c.Compute(1_000)
		for _, a := range locks {
			c.HwTryLock(a, true, 2) // pins entries in WAIT
		}
		// Even with the table full, a fresh lock must still be acquirable
		// through the nonblocking local entry.
		fresh := m.Mem.AllocLine()
		c.HwLock(fresh, true)
		finished = true
		c.HwUnlock(fresh, true)
	})
	m.Run()
	if !finished {
		t.Fatal("LCU exhaustion blocked an acquirable free lock")
	}
	_ = d
}

func TestOverflowReadersViaNonblockingEntries(t *testing.T) {
	// Fill core 0's LCU with waiting entries, then read-acquire a lock
	// that is read-held elsewhere: the LRT must grant in overflow mode.
	m, d := newA(t, Options{})
	nPin := m.P.LCUOrdinary
	pins := make([]memmodel.Addr, nPin)
	for i := range pins {
		pins[i] = m.Mem.AllocLine()
	}
	shared := m.Mem.AllocLine()
	gotShared := false

	m.Spawn("writer-holder", 1, 1, func(c *machine.Ctx) {
		for _, a := range pins {
			c.HwLock(a, true)
		}
		c.Compute(60_000)
		for _, a := range pins {
			c.HwUnlock(a, true)
		}
	})
	m.Spawn("reader-holder", 2, 2, func(c *machine.Ctx) {
		c.HwLock(shared, false)
		c.Compute(50_000)
		c.HwUnlock(shared, false)
	})
	m.Spawn("overflower", 3, 0, func(c *machine.Ctx) {
		c.Compute(2_000)
		for _, a := range pins {
			c.Acq(a, true) // pin all ordinary entries in WAIT/ISSUED
		}
		c.HwLock(shared, false) // must go through the nonblocking entry
		gotShared = true
		c.HwUnlock(shared, false)
	})
	m.Run()
	if !gotShared {
		t.Fatal("nonblocking read acquisition failed")
	}
	if d.Stats.OverflowGrants == 0 {
		t.Fatal("expected an overflow-mode grant")
	}
}

func TestReservationPreventsNonblockingStarvation(t *testing.T) {
	// A nonblocking requestor that keeps getting RETRY must eventually get
	// the lock via the LRT reservation (Section III-D).
	m, d := newA(t, Options{})
	pins := make([]memmodel.Addr, m.P.LCUOrdinary)
	for i := range pins {
		pins[i] = m.Mem.AllocLine()
	}
	hot := m.Mem.AllocLine()
	var got sim.Time

	// Cores 1..3 hammer the hot lock in write mode.
	stop := false
	for i := 1; i <= 3; i++ {
		tid := uint64(i)
		core := i
		m.Spawn("hammer", tid, core, func(c *machine.Ctx) {
			for !stop {
				c.HwLock(hot, true)
				c.Compute(400)
				c.HwUnlock(hot, true)
			}
		})
	}
	m.Spawn("pinner", 10, 4, func(c *machine.Ctx) {
		for _, a := range pins {
			c.HwLock(a, true)
		}
		c.Compute(2_000_000)
	})
	m.Spawn("starved", 11, 0, func(c *machine.Ctx) {
		c.Compute(1_000)
		for _, a := range pins {
			c.Acq(a, true) // pin core 0's ordinary entries
		}
		c.HwLock(hot, true) // must use nonblocking entry + reservation
		got = c.P.Now()
		c.HwUnlock(hot, true)
		stop = true
	})
	m.K.RunUntil(5_000_000)
	if got == 0 {
		t.Fatal("nonblocking requestor starved")
	}
	if d.Stats.Reservations == 0 {
		t.Fatal("expected an LRT reservation to be installed")
	}
	if d.Stats.ResvGrants == 0 {
		t.Fatal("expected the reservation holder to be granted")
	}
}

func TestLRTOverflowToMemory(t *testing.T) {
	// Shrink the LRT to force eviction into the memory-backed table.
	m := machine.ModelA()
	m.P.LRTEntries = 4
	m.P.LRTAssoc = 2
	d := New(m, Options{})
	// All locks homed at the same memory controller, so one LRT holds all
	// of them and must spill to its memory overflow table.
	n := 64
	locks := make([]memmodel.Addr, 0, n)
	for len(locks) < n {
		a := m.Mem.AllocLine()
		if m.Mem.HomeOf(a) == 0 {
			locks = append(locks, a)
		}
	}
	count := 0
	m.Spawn("t", 1, 0, func(c *machine.Ctx) {
		// Hold many locks at once: LRT entries cannot be freed while held.
		for _, a := range locks {
			c.HwLock(a, true)
		}
		for _, a := range locks {
			c.HwUnlock(a, true)
		}
		// All still work afterwards.
		for _, a := range locks {
			c.HwLock(a, true)
			c.HwUnlock(a, true)
			count++
		}
	})
	m.Run()
	if count != n {
		t.Fatalf("re-acquired %d locks, want %d", count, n)
	}
	if d.Stats.LRTEvictions == 0 {
		t.Fatal("expected LRT evictions with a 4-entry table and 64 held locks")
	}
	if d.Stats.LRTOverflowHits == 0 {
		t.Fatal("expected lookups served from the overflow table")
	}
}

func TestFLTBiasing(t *testing.T) {
	// With the FLT enabled, repeated acquire/release by one thread goes
	// remote only once (Section IV-C).
	m, d := newA(t, Options{FLTSize: 4})
	lock := m.Mem.AllocLine()
	m.Spawn("t", 1, 0, func(c *machine.Ctx) {
		for i := 0; i < 50; i++ {
			c.HwLock(lock, true)
			c.Compute(100)
			c.HwUnlock(lock, true)
		}
	})
	m.Run()
	if d.Stats.FLTHits < 45 {
		t.Fatalf("FLT hits = %d, want ~49", d.Stats.FLTHits)
	}
	if d.Stats.Requests != 1 {
		t.Fatalf("remote requests = %d, want 1 with FLT biasing", d.Stats.Requests)
	}
}

func TestFLTHandsOffUnderContention(t *testing.T) {
	// A saved (FLT) lock must still be granted to a remote requestor.
	m, d := newA(t, Options{FLTSize: 4})
	lock := m.Mem.AllocLine()
	var got bool
	m.Spawn("bias", 1, 0, func(c *machine.Ctx) {
		c.HwLock(lock, true)
		c.Compute(100)
		c.HwUnlock(lock, true) // saved in FLT
		c.Compute(10_000)
	})
	m.Spawn("other", 2, 1, func(c *machine.Ctx) {
		c.Compute(2_000)
		c.HwLock(lock, true)
		got = true
		c.HwUnlock(lock, true)
	})
	m.Run()
	if !got {
		t.Fatal("FLT retained the lock against a remote requestor")
	}
	_ = d
}

func TestFairnessFIFOUnderContention(t *testing.T) {
	// Acquisition counts should be roughly equal across threads: FIFO
	// queueing prevents unfairness.
	m, _ := newA(t, Options{})
	lock := m.Mem.AllocLine()
	counts := make([]int, 8)
	stop := false
	for i := 0; i < 8; i++ {
		idx := i
		m.Spawn("t", uint64(i+1), i, func(c *machine.Ctx) {
			for !stop {
				c.HwLock(lock, true)
				counts[idx]++
				c.Compute(100)
				c.HwUnlock(lock, true)
			}
		})
	}
	m.K.Schedule(2_000_000, func() { stop = true })
	m.K.RunUntil(4_000_000)
	min, max := counts[0], counts[0]
	for _, n := range counts {
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	if min == 0 {
		t.Fatalf("a thread was starved: counts=%v", counts)
	}
	if float64(max)/float64(min) > 1.5 {
		t.Fatalf("unfair acquisition spread: counts=%v", counts)
	}
}

func TestModelBBasicLocking(t *testing.T) {
	m, _ := newB(t, Options{})
	lock := m.Mem.AllocLine()
	ck := &checker{t: t}
	for i := 0; i < 16; i++ {
		write := i%4 == 0 // mostly readers so reader runs form in the queue
		m.Spawn("t", uint64(i+1), i*2%32, func(c *machine.Ctx) {
			for j := 0; j < 10; j++ {
				c.HwLock(lock, write)
				ck.enter(write)
				c.Compute(80)
				ck.exit(write)
				c.HwUnlock(lock, write)
			}
		})
	}
	m.Run()
	if ck.maxRead < 2 {
		t.Fatalf("no reader sharing on model B (maxRead=%d)", ck.maxRead)
	}
}

func TestDeterministicEndToEnd(t *testing.T) {
	run := func() (sim.Time, uint64) {
		m, d := newA(t, Options{})
		lock := m.Mem.AllocLine()
		for i := 0; i < 6; i++ {
			write := i%3 == 0
			m.Spawn("t", uint64(i+1), i, func(c *machine.Ctx) {
				for j := 0; j < 25; j++ {
					c.HwLock(lock, write)
					c.Compute(120)
					c.HwUnlock(lock, write)
				}
			})
		}
		m.Run()
		return m.K.Now(), d.Stats.Grants
	}
	t1, g1 := run()
	t2, g2 := run()
	if t1 != t2 || g1 != g2 {
		t.Fatalf("nondeterministic: (%d,%d) vs (%d,%d)", t1, g1, t2, g2)
	}
}

func TestManyLocksManyThreads(t *testing.T) {
	// Stress: 16 threads over 32 locks with mixed modes; must terminate
	// with invariants intact.
	m, _ := newA(t, Options{})
	locks := make([]memmodel.Addr, 32)
	cks := make([]*checker, 32)
	for i := range locks {
		locks[i] = m.Mem.AllocLine()
		cks[i] = &checker{t: t}
	}
	done := 0
	for i := 0; i < 16; i++ {
		tid := uint64(i + 1)
		core := i
		seed := int64(i * 7919)
		m.Spawn("t", tid, core, func(c *machine.Ctx) {
			x := uint64(seed) + 1
			for j := 0; j < 60; j++ {
				x = x*6364136223846793005 + 1442695040888963407
				li := int(x>>33) % len(locks)
				write := (x>>17)%4 == 0
				c.HwLock(locks[li], write)
				cks[li].enter(write)
				c.Compute(60)
				cks[li].exit(write)
				c.HwUnlock(locks[li], write)
			}
			done++
		})
	}
	m.Run()
	if done != 16 {
		t.Fatalf("done = %d, want 16 (wedged?)", done)
	}
}

// TestLCUAcqRelNoAllocs asserts that a steady-state lock/unlock pair on the
// LCU/LRT — request, LRT entry, grant, grant timer, release, ack; plus the
// queue, direct transfer and head notification when contended — allocates
// nothing once the message slab, the LRT's spare entries and the event heap
// are warm. Tracing is off, as in every measured run.
func TestLCUAcqRelNoAllocs(t *testing.T) {
	t.Run("uncontended", func(t *testing.T) {
		m, d := newA(t, Options{})
		lock := m.Mem.AllocLine()
		m.Spawn("t", 1, 0, func(c *machine.Ctx) {
			pair := func() {
				c.HwLock(lock, true)
				c.HwUnlock(lock, true)
				c.Compute(400) // let the release reach the LRT and its ack return
			}
			for i := 0; i < 8; i++ {
				pair()
			}
			if avg := testing.AllocsPerRun(100, pair); avg != 0 {
				t.Errorf("uncontended Acq/Rel pair allocates %.1f objects, want 0", avg)
			}
		})
		m.Run()
		if d.Stats.Grants != d.Stats.Requests || d.Stats.LRTDeletes != d.Stats.LRTCreates {
			t.Errorf("stats = %+v, want every request granted and every LRT entry freed", d.Stats)
		}
	})
	t.Run("contended", func(t *testing.T) {
		m, d := newA(t, Options{})
		lock := m.Mem.AllocLine()
		pair := func(c *machine.Ctx) {
			c.HwLock(lock, true)
			c.Compute(60)
			c.HwUnlock(lock, true)
		}
		done := false
		m.Spawn("rival", 2, 1, func(c *machine.Ctx) {
			for !done {
				pair(c)
			}
		})
		m.Spawn("t", 1, 0, func(c *machine.Ctx) {
			for i := 0; i < 32; i++ {
				pair(c)
			}
			if avg := testing.AllocsPerRun(100, func() { pair(c) }); avg != 0 {
				t.Errorf("contended Acq/Rel pair allocates %.1f objects, want 0", avg)
			}
			done = true
		})
		m.Run()
		if d.Stats.DirectXfers < 100 {
			t.Errorf("direct transfers = %d, want the measured pairs to have contended", d.Stats.DirectXfers)
		}
	})
}
