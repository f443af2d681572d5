package swlocks

import (
	"testing"

	"fairrw/internal/machine"
	"fairrw/internal/sim"
)

// exclusionRun hammers a lock with nThreads writers and checks mutual
// exclusion plus termination. It returns total cycles.
func exclusionRun(t *testing.T, mk func(m *machine.Machine) RWLock, nThreads int) sim.Time {
	t.Helper()
	m := machine.ModelA()
	l := mk(m)
	inside := 0
	done := 0
	for i := 0; i < nThreads; i++ {
		m.Spawn("t", uint64(i+1), i%m.P.Cores, func(c *machine.Ctx) {
			for j := 0; j < 15; j++ {
				l.Lock(c, true)
				inside++
				if inside != 1 {
					t.Errorf("%s: %d threads inside", l.Name(), inside)
				}
				c.Compute(50)
				inside--
				l.Unlock(c, true)
				c.Compute(25)
			}
			done++
		})
	}
	m.Run()
	if done != nThreads {
		t.Fatalf("%s: done=%d want %d", l.Name(), done, nThreads)
	}
	return m.K.Now()
}

func TestTASExclusion(t *testing.T) {
	exclusionRun(t, func(m *machine.Machine) RWLock { return NewTAS(m) }, 8)
}

func TestTATASExclusion(t *testing.T) {
	exclusionRun(t, func(m *machine.Machine) RWLock { return NewTATAS(m) }, 8)
}

func TestMCSExclusion(t *testing.T) {
	exclusionRun(t, func(m *machine.Machine) RWLock { return NewMCS(m) }, 8)
}

func TestMRSWExclusion(t *testing.T) {
	exclusionRun(t, func(m *machine.Machine) RWLock { return NewMRSW(m) }, 8)
}

func TestPosixExclusion(t *testing.T) {
	exclusionRun(t, func(m *machine.Machine) RWLock { return NewPosix(m) }, 8)
}

func TestMRSWReadersShare(t *testing.T) {
	m := machine.ModelA()
	l := NewMRSW(m)
	readers, maxR := 0, 0
	bar := m.NewBarrier(5)
	for i := 0; i < 5; i++ {
		m.Spawn("r", uint64(i+1), i, func(c *machine.Ctx) {
			l.Lock(c, false)
			readers++
			if readers > maxR {
				maxR = readers
			}
			bar.Arrive(c)
			readers--
			l.Unlock(c, false)
		})
	}
	m.Run()
	if maxR != 5 {
		t.Fatalf("max concurrent MRSW readers = %d, want 5", maxR)
	}
}

func TestMRSWFIFOFairness(t *testing.T) {
	// A writer arriving during a reader burst must be admitted before
	// readers that arrive after it.
	m := machine.ModelA()
	l := NewMRSW(m)
	var order []string
	m.Spawn("r1", 1, 0, func(c *machine.Ctx) {
		l.Lock(c, false)
		c.Compute(5_000)
		l.Unlock(c, false)
	})
	m.Spawn("w", 2, 1, func(c *machine.Ctx) {
		c.Compute(500)
		l.Lock(c, true)
		order = append(order, "w")
		l.Unlock(c, true)
	})
	m.Spawn("r2", 3, 2, func(c *machine.Ctx) {
		c.Compute(1_500) // requests after the writer
		l.Lock(c, false)
		order = append(order, "r2")
		l.Unlock(c, false)
	})
	m.Run()
	if len(order) != 2 || order[0] != "w" {
		t.Fatalf("order = %v; writer should precede the late reader", order)
	}
}

func TestMRSWWriterExcludesReaders(t *testing.T) {
	m := machine.ModelA()
	l := NewMRSW(m)
	writerIn := false
	violations := 0
	m.Spawn("w", 1, 0, func(c *machine.Ctx) {
		l.Lock(c, true)
		writerIn = true
		c.Compute(3_000)
		writerIn = false
		l.Unlock(c, true)
	})
	for i := 0; i < 4; i++ {
		m.Spawn("r", uint64(i+2), i+1, func(c *machine.Ctx) {
			c.Compute(200)
			l.Lock(c, false)
			if writerIn {
				violations++
			}
			c.Compute(100)
			l.Unlock(c, false)
		})
	}
	m.Run()
	if violations != 0 {
		t.Fatalf("%d readers overlapped a writer", violations)
	}
}

func TestMCSFIFO(t *testing.T) {
	// MCS must grant in arrival order.
	m := machine.ModelA()
	l := NewMCS(m)
	var order []int
	for i := 0; i < 6; i++ {
		id := i
		delay := sim.Time(1000 * (i + 1))
		m.Spawn("t", uint64(i+1), i, func(c *machine.Ctx) {
			c.Compute(delay)
			l.Lock(c, true)
			order = append(order, id)
			c.Compute(10_000) // hold long so all later arrivals queue
			l.Unlock(c, true)
		})
	}
	m.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("order = %v, want FIFO", order)
		}
	}
}

func TestTASGeneratesMoreCoherenceTrafficThanMCS(t *testing.T) {
	traffic := func(mk func(m *machine.Machine) RWLock) uint64 {
		m := machine.ModelA()
		l := mk(m)
		for i := 0; i < 8; i++ {
			m.Spawn("t", uint64(i+1), i, func(c *machine.Ctx) {
				for j := 0; j < 10; j++ {
					l.Lock(c, true)
					c.Compute(100)
					l.Unlock(c, true)
				}
			})
		}
		m.Run()
		return m.Sys.Stats.RMWs
	}
	tas := traffic(func(m *machine.Machine) RWLock { return NewTAS(m) })
	mcs := traffic(func(m *machine.Machine) RWLock { return NewMCS(m) })
	if tas <= mcs {
		t.Fatalf("TAS RMWs (%d) should exceed MCS RMWs (%d)", tas, mcs)
	}
}

func TestOversubscribedQueueLockAnomaly(t *testing.T) {
	// With more threads than cores, a preempted MCS queue node stalls
	// everyone behind it; TATAS does not have that failure mode. This is
	// the Figure 10 anomaly.
	run := func(mk func(m *machine.Machine) RWLock, threads int) sim.Time {
		m := machine.ModelA()
		l := mk(m)
		var wg sim.WaitGroup
		wg.Add(threads)
		for i := 0; i < threads; i++ {
			m.Spawn("t", uint64(i+1), i%m.P.Cores, func(c *machine.Ctx) {
				for j := 0; j < 10; j++ {
					l.Lock(c, true)
					c.Compute(100)
					l.Unlock(c, true)
				}
				wg.Done()
			})
		}
		m.Run()
		return m.K.Now()
	}
	mcs40 := run(func(m *machine.Machine) RWLock { return NewMCS(m) }, 40)
	mcs16 := run(func(m *machine.Machine) RWLock { return NewMCS(m) }, 16)
	// Oversubscription should cost far more than 40/16 x.
	if mcs40 < mcs16*4 {
		t.Fatalf("MCS oversubscription anomaly absent: 40t=%d vs 16t=%d", mcs40, mcs16)
	}
}
