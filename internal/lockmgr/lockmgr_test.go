package lockmgr

import (
	"sync"
	"testing"
	"time"
)

// fastCfg keeps test leases and the idle GC short.
func fastCfg() Config {
	return Config{
		DefaultLease: time.Second,
		MaxLease:     10 * time.Second,
		IdleTTL:      50 * time.Millisecond,
	}
}

func newTest(t *testing.T, cfg Config) *Manager {
	t.Helper()
	m := New(cfg)
	t.Cleanup(m.Close)
	return m
}

func mustOpen(t *testing.T, m *Manager, lease time.Duration) uint64 {
	t.Helper()
	sid, err := m.Open(lease)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return sid
}

func TestAcquireReleaseBasic(t *testing.T) {
	m := newTest(t, fastCfg())
	a := mustOpen(t, m, time.Second)
	b := mustOpen(t, m, time.Second)

	// Two sessions share; an exclusive try fails until both release.
	if err := m.Acquire(a, "k", false, 0); err != nil {
		t.Fatalf("shared acquire: %v", err)
	}
	if err := m.Acquire(b, "k", false, 0); err != nil {
		t.Fatalf("second shared acquire: %v", err)
	}
	if err := m.Acquire(a, "k", true, 0); err != ErrTimeout {
		t.Fatalf("exclusive try over readers = %v, want ErrTimeout", err)
	}
	if err := m.Release(a, "k", false); err != nil {
		t.Fatalf("release: %v", err)
	}
	if err := m.Release(b, "k", false); err != nil {
		t.Fatalf("release: %v", err)
	}
	if err := m.Acquire(a, "k", true, 0); err != nil {
		t.Fatalf("exclusive after drain: %v", err)
	}
	// Exclusive re-acquire by the same session is rejected, not deadlocked.
	if err := m.Acquire(a, "k", true, -1); err != ErrHeld {
		t.Fatalf("exclusive re-acquire = %v, want ErrHeld", err)
	}
	if err := m.Release(a, "k", true); err != nil {
		t.Fatalf("release exclusive: %v", err)
	}

	// Releasing what is not held, in either mode, is rejected.
	if err := m.Release(a, "k", true); err != ErrNotHeld {
		t.Fatalf("double release = %v, want ErrNotHeld", err)
	}
	if err := m.Release(a, "never", false); err != ErrNotHeld {
		t.Fatalf("release unknown = %v, want ErrNotHeld", err)
	}

	st := m.Stats()
	if st.SharedGrants != 2 || st.ExclGrants != 1 || st.Releases != 3 {
		t.Fatalf("counters = %+v", st)
	}
}

func TestInvalidNamesAndSessions(t *testing.T) {
	m := newTest(t, fastCfg())
	sid := mustOpen(t, m, time.Second)
	if err := m.Acquire(sid, "", false, 0); err != ErrName {
		t.Fatalf("empty name = %v, want ErrName", err)
	}
	long := make([]byte, MaxNameLen+1)
	if err := m.Acquire(sid, string(long), false, 0); err != ErrName {
		t.Fatalf("oversized name = %v, want ErrName", err)
	}
	if err := m.Acquire(999999, "k", false, 0); err != ErrExpired {
		t.Fatalf("unknown session = %v, want ErrExpired", err)
	}
	if err := m.KeepAlive(999999, time.Second); err != ErrExpired {
		t.Fatalf("unknown keepalive = %v, want ErrExpired", err)
	}
}

// blocked starts a scalar Acquire that has to wait and returns once it is
// queued (QueueLen on name reaches queued); the result arrives on the
// channel. The poll only lets the goroutine reach the queue — no test
// sleeps to outwait a lease, a timeout or the GC: the fake clock moves.
func blocked(t *testing.T, m *Manager, sid uint64, name string, excl bool, wait time.Duration, queued int) <-chan error {
	t.Helper()
	errc := make(chan error, 1)
	go func() { errc <- m.Acquire(sid, name, excl, wait) }()
	waitQueue(t, m, name, queued)
	return errc
}

// TestKilledClientReclaimedFIFO is the acceptance scenario: a session dies
// holding an exclusive lock with a FIFO of waiters behind it. The hold is
// reclaimed at the lease's deadline, not before, and every queued waiter is
// granted in arrival order (writer first, then the reader batch).
func TestKilledClientReclaimedFIFO(t *testing.T) {
	m, fc := newFake(t, fastCfg())
	const lease = 100 * time.Millisecond

	dead := mustOpen(t, m, lease)
	if err := m.Acquire(dead, "k", true, 0); err != nil {
		t.Fatalf("dead session acquire: %v", err)
	}
	// The "client" now crashes: no keepalive, no release.

	var sids []uint64
	var got []<-chan error
	for i, excl := range []bool{true, false, false} { // W0, then readers R1 R2
		sids = append(sids, mustOpen(t, m, 5*time.Second))
		got = append(got, blocked(t, m, sids[i], "k", excl, -1, i+1))
	}
	fc.Advance(lease - 1)
	if m.QueueLen("k") != 3 {
		t.Fatalf("a waiter got past a hold whose lease had 1ns to run: QueueLen %d", m.QueueLen("k"))
	}
	fc.Advance(1)
	if err := <-got[0]; err != nil {
		t.Fatalf("writer W0 at the dead holder's deadline: %v", err)
	}
	if m.QueueLen("k") != 2 {
		t.Fatalf("QueueLen %d with W0 holding, want the two readers still queued (FIFO)", m.QueueLen("k"))
	}
	if err := m.Release(sids[0], "k", true); err != nil {
		t.Fatalf("W0 release: %v", err)
	}
	for i := 1; i <= 2; i++ { // the reader batch, together
		if err := <-got[i]; err != nil {
			t.Fatalf("reader R%d: %v", i, err)
		}
	}
	st := m.Stats()
	if st.LeaseExpirations != 1 || st.RevokedHolds != 1 {
		t.Fatalf("expected one expiry of one hold, got %+v", st)
	}
	// The dead session is gone: its late release must be rejected.
	if err := m.Release(dead, "k", true); err != ErrExpired {
		t.Fatalf("late release from dead session = %v, want ErrExpired", err)
	}
}

// TestKeepAliveExtendsLease verifies the reservation stays live as long
// as keepalives arrive, and breaks at the deadline once they stop.
func TestKeepAliveExtendsLease(t *testing.T) {
	m, fc := newFake(t, fastCfg())
	const lease = 60 * time.Millisecond
	sid := mustOpen(t, m, lease)
	if err := m.Acquire(sid, "k", true, 0); err != nil {
		t.Fatalf("acquire: %v", err)
	}
	probe := mustOpen(t, m, 5*time.Second)

	// Keep the session alive for 4 lease periods.
	for i := 0; i < 16; i++ {
		if err := m.KeepAlive(sid, lease); err != nil {
			t.Fatalf("keepalive: %v", err)
		}
		if err := m.Acquire(probe, "k", true, 0); err != ErrTimeout {
			t.Fatalf("probe acquired while keepalives flowing: %v", err)
		}
		fc.Advance(lease / 4)
	}

	// Stop keepalives: the last one was lease/4 ago.
	got := blocked(t, m, probe, "k", true, -1, 1)
	fc.Advance(lease - lease/4 - 1)
	if m.QueueLen("k") != 1 {
		t.Fatal("hold revoked before the renewed lease ran out")
	}
	fc.Advance(1)
	if err := <-got; err != nil {
		t.Fatalf("probe after keepalives stopped: %v", err)
	}
	if err := m.KeepAlive(sid, lease); err != ErrExpired {
		t.Fatalf("keepalive on expired session = %v, want ErrExpired", err)
	}
	if err := m.Release(probe, "k", true); err != nil {
		t.Fatalf("probe release: %v", err)
	}
}

// TestExpiredSessionReleaseRejected: a release arriving after the lease
// lapsed — even before the timer's callback got to run — must be rejected.
func TestExpiredSessionReleaseRejected(t *testing.T) {
	m, fc := newFake(t, fastCfg())
	const lease = 20 * time.Millisecond
	sid := mustOpen(t, m, lease)
	if err := m.Acquire(sid, "r", false, 0); err != nil {
		t.Fatalf("acquire: %v", err)
	}
	fc.Skip(lease) // the deadline is now; the callback has not run
	if err := m.Release(sid, "r", false); err != ErrExpired {
		t.Fatalf("lapsed shared release = %v, want ErrExpired", err)
	}
	if st := m.Stats(); st.LeaseExpirations != 1 || st.RevokedHolds != 1 {
		t.Fatalf("the op that saw the lapse did not expire the session: %+v", st)
	}
	fc.Advance(0) // the late callback finds nothing left to do
	if st := m.Stats(); st.LeaseExpirations != 1 {
		t.Fatalf("expired twice: %+v", st)
	}
}

// TestBlockedWaiterCancelledOnExpiry: a session blocked in queue dies;
// its unbounded acquire must return ErrExpired and leave the queue clean.
func TestBlockedWaiterCancelledOnExpiry(t *testing.T) {
	m, fc := newFake(t, fastCfg())
	holder := mustOpen(t, m, 5*time.Second)
	if err := m.Acquire(holder, "k", true, 0); err != nil {
		t.Fatalf("holder acquire: %v", err)
	}
	const lease = 50 * time.Millisecond
	doomed := mustOpen(t, m, lease)
	got := blocked(t, m, doomed, "k", true, -1, 1)
	fc.Advance(lease)
	if err := <-got; err != ErrExpired {
		t.Fatalf("doomed acquire = %v, want ErrExpired", err)
	}
	if n := m.QueueLen("k"); n != 0 {
		t.Fatalf("queue not cleaned after cancellation: %d", n)
	}
	if err := m.Release(holder, "k", true); err != nil {
		t.Fatalf("holder release: %v", err)
	}
}

// TestTimedAcquire covers the timed path: bounded FIFO wait, timeout
// against a held lock, and the lease cap on the requested wait.
func TestTimedAcquire(t *testing.T) {
	m, fc := newFake(t, fastCfg())
	holder := mustOpen(t, m, 5*time.Second)
	if err := m.Acquire(holder, "k", true, 0); err != nil {
		t.Fatalf("holder: %v", err)
	}
	w := mustOpen(t, m, 5*time.Second)
	got := blocked(t, m, w, "k", false, 30*time.Millisecond, 1)
	fc.Advance(30*time.Millisecond - 1)
	if m.QueueLen("k") != 1 {
		t.Fatal("timed out before its wait ran out")
	}
	fc.Advance(1)
	if err := <-got; err != ErrTimeout {
		t.Fatalf("timed acquire = %v, want ErrTimeout", err)
	}
	// Short-lease session: its 10s request is capped at the lease, and what
	// ends it there is its own deadline — a timeout, not the expiry due at
	// the same instant.
	s := mustOpen(t, m, 50*time.Millisecond)
	got = blocked(t, m, s, "k", true, 10*time.Second, 1)
	fc.Advance(50 * time.Millisecond)
	if err := <-got; err != ErrTimeout {
		t.Fatalf("lease-capped acquire = %v, want ErrTimeout", err)
	}
	// After release the timed path grants.
	if err := m.Release(holder, "k", true); err != nil {
		t.Fatalf("release: %v", err)
	}
	if err := m.Acquire(w, "k", false, time.Second); err != nil {
		t.Fatalf("timed acquire after release: %v", err)
	}
}

// TestEntryGC: entries appear on demand and are collected once idle past
// IdleTTL, while held entries survive.
func TestEntryGC(t *testing.T) {
	cfg := fastCfg()
	m, fc := newFake(t, cfg)
	sid := mustOpen(t, m, time.Second)
	for _, name := range []string{"a", "b", "c"} {
		if err := m.Acquire(sid, name, false, 0); err != nil {
			t.Fatalf("acquire %s: %v", name, err)
		}
	}
	if n := m.EntryCount(); n != 3 {
		t.Fatalf("entries = %d, want 3", n)
	}
	for _, name := range []string{"a", "b"} {
		if err := m.Release(sid, name, false); err != nil {
			t.Fatalf("release %s: %v", name, err)
		}
	}
	fc.Advance(cfg.IdleTTL)
	if n := m.EntryCount(); n != 1 {
		t.Fatalf("idle entries not collected after IdleTTL: %d left", n)
	}
	st := m.Stats()
	if st.EntriesCreated != 3 || st.EntriesGCed != 2 {
		t.Fatalf("entry accounting: %+v", st)
	}
	// The held entry survives GC and is still functional.
	if err := m.Release(sid, "c", false); err != nil {
		t.Fatalf("release c: %v", err)
	}
}

// TestCloseSessionReleasesEverything: graceful close is a bulk release.
func TestCloseSessionReleasesEverything(t *testing.T) {
	m := newTest(t, fastCfg())
	sid := mustOpen(t, m, time.Second)
	if err := m.Acquire(sid, "x", true, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(sid, "y", false, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(sid, "y", false, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.CloseSession(sid); err != nil {
		t.Fatalf("close: %v", err)
	}
	other := mustOpen(t, m, time.Second)
	if err := m.Acquire(other, "x", true, 0); err != nil {
		t.Fatalf("x still held after close: %v", err)
	}
	if err := m.Acquire(other, "y", true, 0); err != nil {
		t.Fatalf("y still held after close: %v", err)
	}
	if m.SessionCount() != 1 {
		t.Fatalf("sessions = %d, want 1", m.SessionCount())
	}
	st := m.Stats()
	if st.SessionsClosed != 1 || st.RevokedHolds != 3 {
		t.Fatalf("close accounting: %+v", st)
	}
}

// TestManagerClose: Close cancels blocked acquires and is idempotent.
func TestManagerClose(t *testing.T) {
	m := New(fastCfg())
	holder, _ := m.Open(time.Second)
	if err := m.Acquire(holder, "k", true, 0); err != nil {
		t.Fatal(err)
	}
	blocked, _ := m.Open(time.Second)
	errc := make(chan error, 1)
	go func() { errc <- m.Acquire(blocked, "k", true, -1) }()
	deadline := time.Now().Add(5 * time.Second)
	for m.QueueLen("k") != 1 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(100 * time.Microsecond)
	}
	m.Close()
	if err := <-errc; err != ErrExpired {
		t.Fatalf("blocked acquire after Close = %v, want ErrExpired", err)
	}
	if _, err := m.Open(time.Second); err != ErrClosed {
		t.Fatalf("Open after Close = %v, want ErrClosed", err)
	}
	m.Close() // idempotent
}

// TestConcurrentChurn hammers the manager from many sessions across a
// small keyspace with mixed modes and waits; run under -race in CI. It
// checks no admission order (TestQueueMatchesModel does): only
// that no error but the expected timeouts occurs, that the table's
// invariants hold in snapshots taken while it runs, and that the final
// state is clean.
func TestConcurrentChurn(t *testing.T) {
	m := newTest(t, fastCfg())
	keys := []string{"a", "b", "c", "d"}
	const goroutines = 8
	const iters = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			sid := mustOpen(t, m, 5*time.Second)
			for i := 0; i < iters; i++ {
				name := keys[(g+i)%len(keys)]
				excl := (g+i)%10 == 0
				err := m.Acquire(sid, name, excl, 100*time.Millisecond)
				if err == ErrTimeout {
					continue
				}
				if err != nil {
					t.Errorf("acquire: %v", err)
					return
				}
				if err := m.Release(sid, name, excl); err != nil {
					t.Errorf("release: %v", err)
					return
				}
			}
			if err := m.CloseSession(sid); err != nil {
				t.Errorf("close session: %v", err)
			}
		}()
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	for running := true; running; {
		select {
		case <-finished:
			running = false
		case <-time.After(200 * time.Microsecond):
		}
		checkInvariants(t, m)
	}
	if m.SessionCount() != 0 {
		t.Fatalf("sessions leaked: %d", m.SessionCount())
	}
	for _, k := range keys {
		if n := m.QueueLen(k); n != 0 {
			t.Fatalf("queue %s not drained: %d", k, n)
		}
	}
}
