package lockmgr

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"fairrw/internal/obs"
)

// slowCfg keeps entries alive for the whole test so the hot-lock table
// reflects everything the test did, not what survived the idle GC.
func slowCfg() Config {
	return Config{
		MaxLease: time.Minute,
		IdleTTL:  time.Hour,
	}
}

// TestHotLocksDeterministic drives a known skew through the scalar path
// and checks the table's exact counts and order: attributed wait first,
// then acquire arrivals, then name.
func TestHotLocksDeterministic(t *testing.T) {
	m := newTest(t, slowCfg())
	sid := mustOpen(t, m, time.Minute)

	// Uncontended acquires: counted as arrivals, zero attributed wait.
	for i, n := range []int{5, 3, 1} {
		name := fmt.Sprintf("warm-%d", i)
		for j := 0; j < n; j++ {
			if err := m.Acquire(sid, name, false, 0); err != nil {
				t.Fatalf("acquire %s: %v", name, err)
			}
			if err := m.Release(sid, name, false); err != nil {
				t.Fatalf("release %s: %v", name, err)
			}
		}
	}

	// One contended acquire on "hot": a second session queues behind an
	// exclusive hold, so real wait time lands on the entry.
	other := mustOpen(t, m, time.Minute)
	if err := m.Acquire(sid, "hot", true, 0); err != nil {
		t.Fatalf("acquire hot: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- m.Acquire(other, "hot", false, time.Second) }()
	waitQueue(t, m, "hot", 1)
	time.Sleep(10 * time.Millisecond) // give the wait something to measure
	if err := m.Release(sid, "hot", true); err != nil {
		t.Fatalf("release hot: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("contended acquire: %v", err)
	}
	if err := m.Release(other, "hot", false); err != nil {
		t.Fatalf("release hot shared: %v", err)
	}

	hl := m.HotLocks(10)
	if len(hl) != 4 {
		t.Fatalf("HotLocks = %d rows, want 4: %+v", len(hl), hl)
	}
	if hl[0].Name != "hot" || hl[0].WaitTotalUS <= 0 || hl[0].WaitMaxUS <= 0 {
		t.Fatalf("top lock = %+v, want contended \"hot\"", hl[0])
	}
	if hl[0].Acquires != 2 {
		t.Fatalf("hot acquires = %d, want 2", hl[0].Acquires)
	}
	wantOrder := []string{"hot", "warm-0", "warm-1", "warm-2"}
	wantAcq := []uint64{2, 5, 3, 1}
	for i := range hl {
		if hl[i].Name != wantOrder[i] || hl[i].Acquires != wantAcq[i] {
			t.Fatalf("row %d = %s/%d, want %s/%d (table: %+v)",
				i, hl[i].Name, hl[i].Acquires, wantOrder[i], wantAcq[i], hl)
		}
	}

	// Truncation: k bounds the table.
	if got := m.HotLocks(2); len(got) != 2 || got[0].Name != "hot" {
		t.Fatalf("HotLocks(2) = %+v", got)
	}
	if got := m.HotLocks(0); got != nil {
		t.Fatalf("HotLocks(0) = %+v, want nil", got)
	}
}

// TestHotLocksQueueLen: a parked waiter shows up as live queue depth.
func TestHotLocksQueueLen(t *testing.T) {
	m := newTest(t, slowCfg())
	a := mustOpen(t, m, time.Minute)
	b := mustOpen(t, m, time.Minute)

	if err := m.Acquire(a, "q", true, 0); err != nil {
		t.Fatalf("acquire: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- m.Acquire(b, "q", true, time.Second) }()
	waitQueue(t, m, "q", 1)

	hl := m.HotLocks(1)
	if len(hl) != 1 || hl[0].Name != "q" || hl[0].QueueLen != 1 {
		t.Fatalf("HotLocks = %+v, want q with queue_len 1", hl)
	}
	if err := m.Release(a, "q", true); err != nil {
		t.Fatalf("release: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("queued acquire: %v", err)
	}
}

func waitQueue(t *testing.T, m *Manager, name string, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for m.QueueLen(name) < n {
		if time.Now().After(deadline) {
			t.Fatalf("queue on %q never reached %d", name, n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestHoldHistogram: hold times land in the snapshot with sane values.
func TestHoldHistogram(t *testing.T) {
	m := newTest(t, slowCfg())
	sid := mustOpen(t, m, time.Minute)
	for i := 0; i < 4; i++ {
		if err := m.Acquire(sid, "h", true, 0); err != nil {
			t.Fatalf("acquire: %v", err)
		}
		time.Sleep(time.Millisecond)
		if err := m.Release(sid, "h", true); err != nil {
			t.Fatalf("release: %v", err)
		}
	}
	snap := m.Stats()
	if snap.HoldCount != 4 {
		t.Fatalf("hold_count = %d, want 4", snap.HoldCount)
	}
	if snap.HoldP50US < 500 || snap.HoldMaxUS < snap.HoldP50US {
		t.Fatalf("implausible hold stats: %+v", snap)
	}
}

// TestFlightRecorderGrantPath: a contended acquire leaves the manager's
// LRT_GRANT record (with measured wait) and a timeout leaves its own;
// both dump with the lock's hash.
func TestFlightRecorderGrantPath(t *testing.T) {
	rec := obs.NewRecorder(2, 32)
	cfg := slowCfg()
	cfg.Recorder = rec
	cfg.SlowLock = time.Microsecond // everything contended is "slow"
	var slowMu sync.Mutex
	var slowNames []string
	cfg.SlowLockFn = func(name string, sid uint64, excl bool, wait time.Duration) {
		slowMu.Lock()
		slowNames = append(slowNames, name)
		slowMu.Unlock()
	}
	m := newTest(t, cfg)
	a := mustOpen(t, m, time.Minute)
	b := mustOpen(t, m, time.Minute)

	if err := m.Acquire(a, "flk", true, 0); err != nil {
		t.Fatalf("acquire: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- m.Acquire(b, "flk", false, time.Second) }()
	waitQueue(t, m, "flk", 1)
	time.Sleep(2 * time.Millisecond)
	if err := m.Release(a, "flk", true); err != nil {
		t.Fatalf("release: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("contended acquire: %v", err)
	}

	// And a timeout.
	if err := m.Acquire(a, "flk", true, 10*time.Millisecond); err != ErrTimeout {
		t.Fatalf("want ErrTimeout over reader, got %v", err)
	}

	h := uint64(obs.Hash("flk"))
	var sawGrant, sawSlow, sawTimeout bool
	for _, r := range rec.Events() {
		if r.Lock != h {
			continue
		}
		switch r.Kind {
		case obs.KLRTGrant:
			if r.Tid == b && r.Aux > 0 {
				sawGrant = true
			}
		case obs.KSlow:
			sawSlow = true
		case obs.KTimeout:
			if r.Tid == a {
				sawTimeout = true
			}
		}
	}
	if !sawGrant || !sawSlow || !sawTimeout {
		t.Fatalf("flight events grant=%v slow=%v timeout=%v, want all true\n%+v",
			sawGrant, sawSlow, sawTimeout, rec.Events())
	}
	slowMu.Lock()
	defer slowMu.Unlock()
	if len(slowNames) == 0 || slowNames[0] != "flk" {
		t.Fatalf("SlowLockFn calls = %v, want [flk ...]", slowNames)
	}
	var sb strings.Builder
	obs.WriteRecords(&sb, rec.Events(), 0)
	if !strings.Contains(sb.String(), "LRT_GRANT") {
		t.Fatalf("dump missing LRT_GRANT:\n%s", sb.String())
	}
}

// TestManagerPairAllocs: the uncontended scalar acquire+release pair
// must stay allocation-free with the full observability configuration
// live (recorder wired, slow-lock armed, hold histogram recording).
func TestManagerPairAllocs(t *testing.T) {
	cfg := slowCfg()
	cfg.Recorder = obs.NewRecorder(2, 32)
	cfg.SlowLock = time.Second
	cfg.SlowLockFn = func(string, uint64, bool, time.Duration) {}
	m := newTest(t, cfg)
	sid := mustOpen(t, m, time.Minute)

	n := testing.AllocsPerRun(200, func() {
		if err := m.Acquire(sid, "pair", true, 0); err != nil {
			t.Fatalf("acquire: %v", err)
		}
		if err := m.Release(sid, "pair", true); err != nil {
			t.Fatalf("release: %v", err)
		}
	})
	if n != 0 {
		t.Fatalf("acquire+release pair allocates %v/op, want 0", n)
	}
}
