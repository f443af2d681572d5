package coherence

import (
	"fmt"
	"strings"
	"testing"

	"fairrw/internal/memmodel"
	"fairrw/internal/sim"
	"fairrw/internal/topo"
)

// testSystem builds a small Model-A-like system for unit tests.
func testSystem(cores int) (*sim.Kernel, *System, *memmodel.Memory) {
	k := sim.New()
	cfg := topo.DefaultModelA()
	cfg.Chips = cores
	net := topo.NewModelA(k, cfg)
	mem := memmodel.New(cores)
	sys := New(k, net, mem, Params{
		Cores: cores, CoresPerChip: 1,
		L1Lat: 3, L2Lat: 10, DRAMLat: 63, CtrlLat: 6, OpLat: 1,
		L1Sets: 256, L1Ways: 4, L2Sets: 1024, L2Ways: 8,
	})
	return k, sys, mem
}

// runProc executes body as a single simulated thread and returns the cycles
// it consumed.
func runProc(k *sim.Kernel, body func(p *sim.Proc)) sim.Time {
	var took sim.Time
	k.Spawn("t", func(p *sim.Proc) {
		start := p.Now()
		body(p)
		took = p.Now() - start
	})
	k.Run()
	return took
}

func TestReadMissThenHit(t *testing.T) {
	k, sys, mem := testSystem(4)
	addr := mem.AllocLine()
	mem.Write(addr, 99)
	var missLat, hitLat sim.Time
	runProc(k, func(p *sim.Proc) {
		t0 := p.Now()
		if v := sys.Read(p, 0, addr); v != 99 {
			t.Errorf("read = %d, want 99", v)
		}
		missLat = p.Now() - t0
		t0 = p.Now()
		sys.Read(p, 0, addr)
		hitLat = p.Now() - t0
	})
	if hitLat != 3 {
		t.Fatalf("hit latency = %d, want L1Lat=3", hitLat)
	}
	if missLat < 100 {
		t.Fatalf("miss latency = %d, suspiciously low (network+DRAM expected)", missLat)
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	k, sys, mem := testSystem(4)
	addr := mem.AllocLine()
	done := make(chan struct{}) // compile-time unused guard
	_ = done

	// Two readers cache the line, then core 2 writes: both readers must
	// miss on their next read.
	runProc(k, func(p *sim.Proc) {
		sys.Read(p, 0, addr)
		sys.Read(p, 1, addr)
		h0, m0 := sys.L1Stats(0)
		sys.Write(p, 2, addr, 7)
		sys.Read(p, 0, addr) // should miss now
		h1, m1 := sys.L1Stats(0)
		if m1 != m0+1 {
			t.Errorf("reader L1 misses %d -> %d, want one new miss after invalidation", m0, m1)
		}
		if h1 != h0 {
			t.Errorf("unexpected L1 hit after invalidation")
		}
		if v := sys.Read(p, 1, addr); v != 7 {
			t.Errorf("stale value %d after invalidation", v)
		}
	})
}

func TestDirtyForwarding(t *testing.T) {
	k, sys, mem := testSystem(4)
	addr := mem.AllocLine()
	runProc(k, func(p *sim.Proc) {
		sys.Write(p, 0, addr, 5) // core 0 owns dirty
		f0 := sys.Stats.Forwards
		if v := sys.Read(p, 1, addr); v != 5 {
			t.Errorf("read after remote write = %d, want 5", v)
		}
		if sys.Stats.Forwards != f0+1 {
			t.Errorf("expected a cache-to-cache forward, got %d -> %d", f0, sys.Stats.Forwards)
		}
		// Both now share; the old owner still hits.
		h0, _ := sys.L1Stats(0)
		sys.Read(p, 0, addr)
		h1, _ := sys.L1Stats(0)
		if h1 != h0+1 {
			t.Errorf("previous owner should retain a shared copy")
		}
	})
}

func TestInvalidationFanoutCost(t *testing.T) {
	k, sys, mem := testSystem(16)
	few := mem.AllocLine()
	many := mem.AllocLine()
	runProc(k, func(p *sim.Proc) {
		sys.Read(p, 1, few)
		for c := 1; c < 16; c++ {
			sys.Read(p, c, many)
		}
		t0 := p.Now()
		sys.Write(p, 0, few, 1)
		costFew := p.Now() - t0
		t0 = p.Now()
		sys.Write(p, 0, many, 1)
		costMany := p.Now() - t0
		if costMany <= costFew {
			t.Errorf("invalidating 15 sharers (%d) should cost more than 1 (%d)", costMany, costFew)
		}
	})
}

func TestCAS(t *testing.T) {
	k, sys, mem := testSystem(2)
	addr := mem.AllocLine()
	runProc(k, func(p *sim.Proc) {
		if !sys.CAS(p, 0, addr, 0, 10) {
			t.Error("CAS from correct old value failed")
		}
		if sys.CAS(p, 1, addr, 0, 20) {
			t.Error("CAS from stale old value succeeded")
		}
		if v := sys.Read(p, 1, addr); v != 10 {
			t.Errorf("value = %d, want 10", v)
		}
	})
}

func TestFetchAddAndSwap(t *testing.T) {
	k, sys, mem := testSystem(2)
	addr := mem.AllocLine()
	runProc(k, func(p *sim.Proc) {
		if old := sys.FetchAdd(p, 0, addr, 5); old != 0 {
			t.Errorf("first FetchAdd returned %d, want 0", old)
		}
		if old := sys.FetchAdd(p, 1, addr, 5); old != 5 {
			t.Errorf("second FetchAdd returned %d, want 5", old)
		}
		if old := sys.Swap(p, 0, addr, 100); old != 10 {
			t.Errorf("Swap returned %d, want 10", old)
		}
	})
}

func TestWaitChangeWakesSpinner(t *testing.T) {
	k, sys, mem := testSystem(2)
	addr := mem.AllocLine()
	var sawAt sim.Time
	k.Spawn("spinner", func(p *sim.Proc) {
		for {
			v := sys.Read(p, 0, addr)
			if v == 1 {
				sawAt = p.Now()
				return
			}
			sys.WaitChange(p, addr, v)
		}
	})
	k.Spawn("writer", func(p *sim.Proc) {
		p.Wait(5000)
		sys.Write(p, 1, addr, 1)
	})
	k.Run()
	if sawAt < 5000 {
		t.Fatalf("spinner saw value at %d, before the write at 5000", sawAt)
	}
	if sawAt > 6000 {
		t.Fatalf("spinner woke too late: %d", sawAt)
	}
}

func TestWaitChangeImmediateReturn(t *testing.T) {
	k, sys, mem := testSystem(1)
	addr := mem.AllocLine()
	mem.Write(addr, 3)
	ran := false
	k.Spawn("p", func(p *sim.Proc) {
		sys.WaitChange(p, addr, 99) // value already differs: no block
		ran = true
	})
	k.Run()
	if !ran {
		t.Fatal("WaitChange blocked although the value already changed")
	}
	_ = sys
}

func TestWaitChangeTimeout(t *testing.T) {
	k, sys, mem := testSystem(1)
	addr := mem.AllocLine()
	var ok bool
	k.Spawn("p", func(p *sim.Proc) {
		ok = sys.WaitChangeTimeout(p, addr, 0, 100)
	})
	k.Run()
	if ok {
		t.Fatal("timeout path reported a wake")
	}
	if k.Now() != 100 {
		t.Fatalf("now = %d, want 100", k.Now())
	}
}

func TestCapacityEviction(t *testing.T) {
	k := sim.New()
	net := topo.NewModelA(k, topo.DefaultModelA())
	mem := memmodel.New(4)
	// Tiny L1: 2 sets x 1 way.
	sys := New(k, net, mem, Params{
		Cores: 2, CoresPerChip: 1,
		L1Lat: 3, L2Lat: 10, DRAMLat: 63, CtrlLat: 6, OpLat: 1,
		L1Sets: 2, L1Ways: 1, L2Sets: 1024, L2Ways: 8,
	})
	addrs := make([]memmodel.Addr, 4)
	for i := range addrs {
		addrs[i] = mem.AllocLine()
	}
	runProc(k, func(p *sim.Proc) {
		for _, a := range addrs {
			sys.Read(p, 0, a)
		}
		_, m0 := sys.L1Stats(0)
		sys.Read(p, 0, addrs[0]) // evicted by addrs[2] (same set): miss again
		_, m1 := sys.L1Stats(0)
		if m1 != m0+1 {
			t.Errorf("expected capacity miss after eviction (misses %d -> %d)", m0, m1)
		}
	})
}

func TestUpgradeCheaperThanColdWrite(t *testing.T) {
	k, sys, mem := testSystem(4)
	a := mem.AllocLine()
	b := mem.AllocLine()
	runProc(k, func(p *sim.Proc) {
		sys.Read(p, 0, a) // now shared by core 0
		t0 := p.Now()
		sys.Write(p, 0, a, 1) // upgrade: no data fetch
		up := p.Now() - t0
		t0 = p.Now()
		sys.Write(p, 0, b, 1) // cold write: full GetM with DRAM fetch
		cold := p.Now() - t0
		if up >= cold {
			t.Errorf("upgrade (%d) should be cheaper than cold write (%d)", up, cold)
		}
	})
}

func TestOwnerHitWrite(t *testing.T) {
	k, sys, mem := testSystem(2)
	a := mem.AllocLine()
	runProc(k, func(p *sim.Proc) {
		sys.Write(p, 0, a, 1)
		t0 := p.Now()
		sys.Write(p, 0, a, 2)
		if lat := p.Now() - t0; lat != 3 {
			t.Errorf("owner write hit latency = %d, want 3", lat)
		}
	})
}

func TestDeterminism(t *testing.T) {
	run := func() sim.Time {
		k, sys, mem := testSystem(8)
		addr := mem.AllocLine()
		var wg sim.WaitGroup
		wg.Add(8)
		for c := 0; c < 8; c++ {
			c := c
			k.Spawn("w", func(p *sim.Proc) {
				for i := 0; i < 100; i++ {
					sys.FetchAdd(p, c, addr, 1)
				}
				wg.Done()
			})
		}
		k.Run()
		return k.Now()
	}
	first := run()
	for i := 0; i < 3; i++ {
		if again := run(); again != first {
			t.Fatalf("nondeterministic end time: %d vs %d", first, again)
		}
	}
}

// TestDirectoryPastHeapPanics: the directory pages in lockstep with the
// memory heap, so a line in the heap's last page materializes its entry
// and a line past the page table panics, naming the line.
func TestDirectoryPastHeapPanics(t *testing.T) {
	_, sys, mem := testSystem(2)
	mem.AllocLine()
	last := memmodel.LineOf((memmodel.PageOf(mem.Brk()-1)+1)<<memmodel.PageShift - 1)
	if e := sys.entry(last); e.owner != -1 {
		t.Fatalf("fresh entry in the heap's last page has owner %d", e.owner)
	}
	past := last + memmodel.LineSize
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("directory touch at %#x past the heap did not panic", past)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, fmt.Sprintf("%#x", past)) {
			t.Fatalf("panic %q does not name %#x", msg, past)
		}
	}()
	sys.entry(past)
}
