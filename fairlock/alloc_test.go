package fairlock

import (
	"sync"
	"testing"
)

// TestUncontendedAllocs pins the uncontended fast paths at zero
// allocations per operation (the CI alloc guard). The read path is
// measured in both modes: central CAS (bias off) and BRAVO slot publish
// (bias on).
func TestUncontendedAllocs(t *testing.T) {
	var m RWMutex
	if n := testing.AllocsPerRun(500, func() { m.Lock(); m.Unlock() }); n != 0 {
		t.Errorf("Lock/Unlock allocates %.1f objects/op, want 0", n)
	}
	if n := testing.AllocsPerRun(500, func() { m.RLock(); m.RUnlock() }); n != 0 {
		t.Errorf("RLock/RUnlock (central) allocates %.1f objects/op, want 0", n)
	}
	// The 500 central read grants above flip the read bias on; verify and
	// measure the slot path.
	if m.state.Load()&biasBit == 0 {
		t.Fatal("read bias did not enable after sustained read traffic")
	}
	if n := testing.AllocsPerRun(500, func() { m.RLock(); m.RUnlock() }); n != 0 {
		t.Errorf("RLock/RUnlock (biased) allocates %.1f objects/op, want 0", n)
	}
	if n := testing.AllocsPerRun(500, func() {
		if m.TryRLock() {
			m.RUnlock()
		}
	}); n != 0 {
		t.Errorf("TryRLock/RUnlock allocates %.1f objects/op, want 0", n)
	}
	if n := testing.AllocsPerRun(500, func() {
		if m.TryLock() {
			m.Unlock()
		}
	}); n != 0 {
		t.Errorf("TryLock/Unlock allocates %.1f objects/op, want 0", n)
	}

	var mu Mutex
	if n := testing.AllocsPerRun(500, func() { mu.Lock(); mu.Unlock() }); n != 0 {
		t.Errorf("Mutex Lock/Unlock allocates %.1f objects/op, want 0", n)
	}
	if n := testing.AllocsPerRun(500, func() {
		if mu.TryLock() {
			mu.Unlock()
		}
	}); n != 0 {
		t.Errorf("Mutex TryLock/Unlock allocates %.1f objects/op, want 0", n)
	}
}

// TestFissileAllocs pins the contended acquire at zero allocations: a
// writer acquiring against a lock that a peer holds and releases in a
// tight loop resolves by the spin (or at worst the pooled queue); either
// way the steady state must stay allocation-free.
func TestFissileAllocs(t *testing.T) {
	var m RWMutex
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				m.Lock()
				m.Unlock() //nolint:staticcheck // empty critical section on purpose
			}
		}
	}()
	if n := testing.AllocsPerRun(2000, func() { m.Lock(); m.Unlock() }); n > 0.1 {
		t.Errorf("contended Lock/Unlock allocates %.2f objects/op, want ~0", n)
	}
	close(stop)
	wg.Wait()
}
