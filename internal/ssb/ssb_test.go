package ssb

import (
	"testing"

	"fairrw/internal/machine"
	"fairrw/internal/sim"
)

func TestMutualExclusion(t *testing.T) {
	m := machine.ModelA()
	d := New(m)
	lock := m.Mem.AllocLine()
	inside := 0
	done := 0
	for i := 0; i < 8; i++ {
		m.Spawn("t", uint64(i+1), i, func(c *machine.Ctx) {
			for j := 0; j < 20; j++ {
				c.HwLock(lock, true)
				inside++
				if inside > 1 {
					t.Errorf("two writers inside")
				}
				c.Compute(50)
				inside--
				c.HwUnlock(lock, true)
			}
			done++
		})
	}
	m.Run()
	if done != 8 {
		t.Fatalf("done = %d, want 8", done)
	}
	if d.Stats.Nacks == 0 {
		t.Fatal("contended run should produce NACKs")
	}
}

func TestReadersShare(t *testing.T) {
	m := machine.ModelA()
	New(m)
	lock := m.Mem.AllocLine()
	readers, maxReaders := 0, 0
	bar := m.NewBarrier(5)
	for i := 0; i < 5; i++ {
		m.Spawn("r", uint64(i+1), i, func(c *machine.Ctx) {
			c.HwLock(lock, false)
			readers++
			if readers > maxReaders {
				maxReaders = readers
			}
			bar.Arrive(c)
			readers--
			c.HwUnlock(lock, false)
		})
	}
	m.Run()
	if maxReaders != 5 {
		t.Fatalf("max concurrent readers = %d, want 5", maxReaders)
	}
}

func TestWriterCanStarveUnderReaderChurn(t *testing.T) {
	// The SSB's reader preference admits arriving readers even while a
	// writer retries: with enough reader churn the writer waits far longer
	// than under the fair LCU. This documents the unfairness the paper
	// contrasts against.
	m := machine.ModelA()
	New(m)
	lock := m.Mem.AllocLine()
	var writerGot sim.Time
	stop := false
	for i := 0; i < 8; i++ {
		stagger := sim.Time(i * 83) // desynchronize so readers always overlap
		m.Spawn("r", uint64(i+1), i, func(c *machine.Ctx) {
			c.Compute(stagger)
			for !stop {
				c.HwLock(lock, false)
				c.Compute(600)
				c.HwUnlock(lock, false)
				c.Compute(5)
			}
		})
	}
	m.Spawn("w", 100, 9, func(c *machine.Ctx) {
		c.Compute(1_000)
		c.HwLock(lock, true)
		writerGot = c.P.Now()
		c.HwUnlock(lock, true)
		stop = true
	})
	m.K.RunUntil(8_000_000)
	stop = true
	m.Run()
	// Uncontended write acquisition takes one round trip (~130 cycles).
	// Under reader churn with reader preference the writer must wait orders
	// of magnitude longer, or starve outright within the horizon.
	if writerGot != 0 && writerGot < 20_000 {
		t.Fatalf("writer got in after only %d cycles — reader preference should delay it far more", writerGot-1_000)
	}
}

func TestRetriesCostMessages(t *testing.T) {
	m := machine.ModelB()
	d := New(m)
	lock := m.Mem.AllocLine()
	base := m.Net.Sent
	m.Spawn("holder", 1, 0, func(c *machine.Ctx) {
		c.HwLock(lock, true)
		c.Compute(20_000)
		c.HwUnlock(lock, true)
	})
	m.Spawn("contender", 2, 8, func(c *machine.Ctx) { // other chip
		c.Compute(500)
		c.HwLock(lock, true)
		c.HwUnlock(lock, true)
	})
	m.Run()
	msgs := m.Net.Sent - base
	// The contender retried for ~20k cycles at ~200-cycle backoff with 2
	// messages per attempt: expect substantial traffic.
	if msgs < 60 {
		t.Fatalf("messages = %d; remote retries should generate heavy traffic", msgs)
	}
	if d.Stats.Nacks < 20 {
		t.Fatalf("nacks = %d; expected sustained retrying", d.Stats.Nacks)
	}
}

func TestTableCapacityNACKs(t *testing.T) {
	m := machine.ModelA()
	d := New(m)
	for _, b := range d.banks {
		b.cap = 1
	}
	// Two locks homed at the same controller: holding one blocks table
	// allocation for the other.
	var a, b uint64
	for {
		x := m.Mem.AllocLine()
		if m.Mem.HomeOf(x) == 0 {
			if a == 0 {
				a = x
			} else {
				b = x
				break
			}
		}
	}
	full := false
	m.Spawn("t", 1, 0, func(c *machine.Ctx) {
		c.HwLock(a, true)
		full = !c.Acq(b, true) // table full: must NACK
		c.HwUnlock(a, true)
		c.HwLock(b, true) // then succeeds
		c.HwUnlock(b, true)
	})
	m.Run()
	if !full {
		t.Fatal("expected NACK when the bank table is full")
	}
	if d.Stats.TableFull == 0 {
		t.Fatal("TableFull stat not incremented")
	}
}

// TestAcqRelNoAllocs asserts that a steady-state acquire/release pair —
// request, bank lookup, reply, fire-and-forget release — allocates nothing
// once the pending-op slab and the bank's table are warm.
func TestAcqRelNoAllocs(t *testing.T) {
	m := machine.ModelA()
	d := New(m)
	lock := m.Mem.AllocLine()
	m.Spawn("t", 1, 0, func(c *machine.Ctx) {
		pair := func() {
			if !d.Acq(c.P, 0, c.TID, lock, true) {
				t.Error("uncontended Acq was refused")
			}
			d.Rel(c.P, 0, c.TID, lock, true)
			c.Compute(200) // let the release reach the bank
		}
		pair()
		if avg := testing.AllocsPerRun(100, pair); avg != 0 {
			t.Errorf("Acq/Rel pair allocates %.1f objects, want 0", avg)
		}
	})
	m.Run()
	if d.Stats.Grants != d.Stats.Requests || d.Stats.Releases != d.Stats.Grants {
		t.Errorf("stats = %+v, want every request granted and released", d.Stats)
	}
}
