package machine

import (
	"testing"

	"fairrw/internal/memmodel"
	"fairrw/internal/sim"
)

func TestModelAConstruction(t *testing.T) {
	m := ModelA()
	if m.P.Cores != 32 || m.P.NumMem != 32 || m.P.LCUOrdinary != 8 {
		t.Fatalf("model A params wrong: %+v", m.P)
	}
	if m.Sys.P.L2Lat != 10 {
		t.Fatalf("model A L2 latency = %d, want 10", m.Sys.P.L2Lat)
	}
}

func TestModelBConstruction(t *testing.T) {
	m := ModelB()
	if m.P.Cores != 32 || m.P.NumMem != 8 || m.P.LCUOrdinary != 16 {
		t.Fatalf("model B params wrong: %+v", m.P)
	}
	if m.Sys.P.CoresPerChip != 8 {
		t.Fatalf("model B cores/chip = %d, want 8", m.Sys.P.CoresPerChip)
	}
}

// TestConstructionAllocs bounds what building a machine allocates: the
// route table is one allocation per network, not one per node pair
// (64×64 on A, 40×40 on B), and the links, the L1s, the L2s and the core
// schedulers are one slab each, not one object per link, cache or core.
// The bounds are the measured counts (59 on A, 27 on B) plus 5.
func TestConstructionAllocs(t *testing.T) {
	for _, c := range []struct {
		name  string
		build func() *Machine
		max   float64
	}{
		{"A", ModelA, 64},
		{"B", ModelB, 32},
	} {
		if avg := testing.AllocsPerRun(5, func() { c.build() }); avg > c.max {
			t.Errorf("Model%s() allocates %.0f times, want <= %.0f", c.name, avg, c.max)
		}
	}
}

var machineSink *Machine

// BenchmarkNewMachine times building each model from scratch, the set-up a
// sweep worker pays once per model.
func BenchmarkNewMachine(b *testing.B) {
	for _, c := range []struct {
		name  string
		build func() *Machine
	}{{"A", ModelA}, {"B", ModelB}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				machineSink = c.build()
			}
		})
	}
}

// Memory-latency calibration against Figure 8.
func TestModelAMemoryLatency(t *testing.T) {
	m := ModelA()
	addr := m.Mem.AllocLine()
	var lat sim.Time
	m.Spawn("t", 1, 0, func(c *Ctx) {
		t0 := c.P.Now()
		c.Load(addr)
		lat = c.P.Now() - t0
	})
	m.Run()
	// Paper: 186 cycles (uniform). Allow a narrow band around it.
	if lat < 170 || lat > 205 {
		t.Fatalf("model A cold load = %d cycles, want ~186", lat)
	}
}

func TestModelBMemoryLatency(t *testing.T) {
	var local, remote sim.Time
	m := ModelB()
	// Find a line homed on chip 0 (mem 0 or 1) and one homed on chip 3.
	var la, ra memmodel.Addr
	for {
		a := m.Mem.AllocLine()
		h := m.Mem.HomeOf(a)
		if (h == 0 || h == 1) && la == 0 {
			la = a
		}
		if h >= 6 && ra == 0 {
			ra = a
		}
		if la != 0 && ra != 0 {
			break
		}
	}
	m.Spawn("t", 1, 0, func(c *Ctx) {
		t0 := c.P.Now()
		c.Load(la)
		local = c.P.Now() - t0
		t0 = c.P.Now()
		c.Load(ra)
		remote = c.P.Now() - t0
	})
	m.Run()
	// Paper: 210 local, 315 remote.
	if local < 190 || local > 235 {
		t.Fatalf("model B local load = %d, want ~210", local)
	}
	if remote < 285 || remote > 345 {
		t.Fatalf("model B remote load = %d, want ~315", remote)
	}
}

func TestSchedulerOversubscription(t *testing.T) {
	m := ModelA()
	addr := m.Mem.AllocWords(4)
	// Three threads on one core must interleave via the quantum, and all
	// must finish.
	finished := 0
	for i := 0; i < 3; i++ {
		tid := uint64(i + 1)
		m.Spawn("t", tid, 5, func(c *Ctx) {
			for j := 0; j < 5; j++ {
				c.Compute(30_000) // longer than half a quantum
				c.FetchAdd(addr, 1)
			}
			finished++
		})
	}
	m.Run()
	if finished != 3 {
		t.Fatalf("finished = %d, want 3", finished)
	}
	if got := m.Mem.Read(addr); got != 15 {
		t.Fatalf("counter = %d, want 15", got)
	}
}

func TestPreemptionDelaysThread(t *testing.T) {
	// A thread sharing a core must take much longer than one alone.
	solo := func() sim.Time {
		m := ModelA()
		var took sim.Time
		m.Spawn("t", 1, 0, func(c *Ctx) {
			c.Compute(200_000)
			took = c.P.Now()
		})
		m.Run()
		return took
	}()
	shared := func() sim.Time {
		m := ModelA()
		var took sim.Time
		m.Spawn("t", 1, 0, func(c *Ctx) {
			c.Compute(200_000)
			took = c.P.Now()
		})
		m.Spawn("u", 2, 0, func(c *Ctx) {
			c.Compute(2_000_000)
		})
		m.Run()
		return took
	}()
	if shared < solo+100_000 {
		t.Fatalf("sharing a core: %d vs solo %d — preemption had no effect", shared, solo)
	}
}

func TestMigration(t *testing.T) {
	m := ModelA()
	addr := m.Mem.AllocLine()
	var coreSeen []int
	m.Spawn("t", 1, 0, func(c *Ctx) {
		c.Store(addr, 1)
		coreSeen = append(coreSeen, c.Core())
		c.Migrate(7)
		c.Store(addr, 2)
		coreSeen = append(coreSeen, c.Core())
	})
	m.Run()
	if len(coreSeen) != 2 || coreSeen[0] != 0 || coreSeen[1] != 7 {
		t.Fatalf("cores = %v, want [0 7]", coreSeen)
	}
	if c := m.Mem.Read(addr); c != 2 {
		t.Fatalf("value = %d, want 2", c)
	}
	if m.Sys.Stats.Invalidations == 0 {
		t.Fatal("migrated store should have invalidated the old core's copy")
	}
}

func TestBarrier(t *testing.T) {
	m := ModelA()
	b := m.NewBarrier(4)
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		m.Spawn("t", uint64(i+1), i, func(c *Ctx) {
			c.Compute(sim.Time((i + 1) * 1000))
			b.Arrive(c)
			order = append(order, i)
		})
	}
	m.Run()
	if len(order) != 4 {
		t.Fatalf("only %d threads left the barrier", len(order))
	}
	if m.K.Now() < 4000 {
		t.Fatalf("barrier released at %d, before last arrival at 4000+", m.K.Now())
	}
}

func TestCtxSpinViaWaitChange(t *testing.T) {
	m := ModelA()
	flag := m.Mem.AllocLine()
	var sawAt sim.Time
	m.Spawn("spinner", 1, 0, func(c *Ctx) {
		for {
			v := c.Load(flag)
			if v != 0 {
				sawAt = c.P.Now()
				return
			}
			c.WaitChange(flag, v)
		}
	})
	m.Spawn("setter", 2, 1, func(c *Ctx) {
		c.Compute(10_000)
		c.Store(flag, 1)
	})
	m.Run()
	if sawAt < 10_000 || sawAt > 11_000 {
		t.Fatalf("spinner completed at %d, want shortly after 10000", sawAt)
	}
}

func TestYieldRotates(t *testing.T) {
	m := ModelA()
	var order []string
	m.Spawn("a", 1, 0, func(c *Ctx) {
		order = append(order, "a1")
		c.Yield()
		order = append(order, "a2")
	})
	m.Spawn("b", 2, 0, func(c *Ctx) {
		order = append(order, "b1")
	})
	m.Run()
	if len(order) != 3 || order[0] != "a1" || order[1] != "b1" {
		t.Fatalf("order = %v, want a1 b1 a2", order)
	}
}
