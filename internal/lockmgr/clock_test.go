package lockmgr

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"fairrw/internal/obs"
)

// fakeClock is the clock the lease, timeout and GC tests run on: time
// moves only when a test moves it, and a timer's callback runs inside
// Advance, on the test's goroutine, at exactly the instant it was set for
// — so when Advance returns, everything that instant caused has happened.
type fakeClock struct {
	mu     sync.Mutex
	t      time.Time
	timers []*fakeTimer
	resets int // timers armed or re-armed so far
}

type fakeTimer struct {
	c     *fakeClock
	at    time.Time
	f     func()
	armed bool
}

// newFake returns a manager that reads fc instead of real time.
func newFake(t *testing.T, cfg Config) (*Manager, *fakeClock) {
	t.Helper()
	fc := &fakeClock{t: time.Unix(1_000_000, 0)}
	m := newTest(t, cfg)
	m.clk = clock{now: fc.Now, afterFunc: fc.AfterFunc}
	return m, fc
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) AfterFunc(d time.Duration, f func()) timer {
	c.mu.Lock()
	defer c.mu.Unlock()
	ft := &fakeTimer{c: c, at: c.t.Add(d), f: f, armed: true}
	c.timers = append(c.timers, ft)
	c.resets++
	return ft
}

func (ft *fakeTimer) Reset(d time.Duration) bool {
	ft.c.mu.Lock()
	defer ft.c.mu.Unlock()
	was := ft.armed
	ft.at, ft.armed = ft.c.t.Add(d), true
	ft.c.resets++
	return was
}

func (ft *fakeTimer) Stop() bool {
	ft.c.mu.Lock()
	defer ft.c.mu.Unlock()
	was := ft.armed
	ft.armed = false
	return was
}

// Advance moves the clock forward by d, stopping at each armed timer on
// the way to run its callback at that timer's own instant.
func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	end := c.t.Add(d)
	for {
		var due *fakeTimer
		for _, ft := range c.timers {
			if ft.armed && !ft.at.After(end) && (due == nil || ft.at.Before(due.at)) {
				due = ft
			}
		}
		if due == nil {
			break
		}
		if due.at.After(c.t) {
			c.t = due.at
		}
		due.armed = false
		c.mu.Unlock()
		due.f()
		c.mu.Lock()
	}
	c.t = end
	c.mu.Unlock()
}

// Skip moves the clock forward by d without running any timer: the
// callback is late, as a real one always is by some amount.
func (c *fakeClock) Skip(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// armed reports how many timers are waiting to fire.
func (c *fakeClock) armed() (n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ft := range c.timers {
		if ft.armed {
			n++
		}
	}
	return n
}

// queue submits one batch acquire of name for sid that is expected to
// queue, and returns the Waiter that will be told how it ended.
func queue(t *testing.T, m *Manager, sid uint64, name string, excl bool, wait time.Duration) *recWaiter {
	t.Helper()
	w := new(recWaiter)
	ops := []BatchOp{{Kind: BatchAcquire, SID: sid, Name: []byte(name), Excl: excl, Wait: int64(wait), Waiter: w}}
	m.ExecBatch(ops, m.NewBatchScratch())
	if ops[0].Err != ErrWouldBlock {
		t.Fatalf("acquire of %q = %v, want it queued", name, ops[0].Err)
	}
	return w
}

// ended is what w was told, nil (and ok false) if nothing yet.
func ended(t *testing.T, w *recWaiter) (err error, ok bool) {
	t.Helper()
	got := w.take()
	if len(got) > 1 {
		t.Fatalf("a queued acquire ended %d times: %+v", len(got), got)
	}
	if len(got) == 0 {
		return nil, false
	}
	return got[0].Err, true
}

// TestLeaseExpiresExactlyAtDeadline: one nanosecond short of the lease
// the hold stands and nothing has happened; at the deadline it is revoked
// and the writer queued behind it, then the reader behind that, are
// granted in arrival order, with one KExpire.
func TestLeaseExpiresExactlyAtDeadline(t *testing.T) {
	const lease = 100 * time.Millisecond
	cfg := fastCfg()
	cfg.Recorder = obs.NewRecorder(1, 64)
	m, fc := newFake(t, cfg)
	dead := mustOpen(t, m, lease)
	if err := m.Acquire(dead, "k", true, 0); err != nil {
		t.Fatalf("acquire: %v", err)
	}
	wr, rd := mustOpen(t, m, time.Second), mustOpen(t, m, time.Second)
	w, r := queue(t, m, wr, "k", true, -1), queue(t, m, rd, "k", false, -1)

	fc.Advance(lease - 1)
	if _, ok := ended(t, w); ok || m.Stats().LeaseExpirations != 0 {
		t.Fatal("the hold was revoked before its lease ran out")
	}
	fc.Advance(1)
	if err, ok := ended(t, w); !ok || err != nil {
		t.Fatalf("writer behind the dead holder at the deadline: %v, ended %v; want its grant", err, ok)
	}
	if _, ok := ended(t, r); ok {
		t.Fatal("the reader was granted past the writer queued ahead of it")
	}
	if err := m.Release(wr, "k", true); err != nil {
		t.Fatalf("writer release: %v", err)
	}
	if err, ok := ended(t, r); !ok || err != nil {
		t.Fatalf("reader behind the writer: %v, ended %v; want its grant", err, ok)
	}
	expires := 0
	for _, rec := range cfg.Recorder.Events() {
		if rec.Kind == obs.KExpire {
			expires++
		}
	}
	if st := m.Stats(); expires != 1 || st.LeaseExpirations != 1 || st.RevokedHolds != 1 {
		t.Fatalf("%d KExpire, stats %+v; want one expiry of one hold", expires, st)
	}
	if err := m.Release(dead, "k", true); err != ErrExpired {
		t.Fatalf("late release from the dead session = %v, want ErrExpired", err)
	}
}

// TestWaitDeadlineTiesLease: a bounded wait that runs out at the very
// instant its session's lease does is a timeout, whichever of the two heap
// items was placed first; it is an expiry only when the lease is strictly
// the earlier.
func TestWaitDeadlineTiesLease(t *testing.T) {
	const d = 50 * time.Millisecond
	for _, tc := range []struct {
		name      string
		lease     time.Duration // at Open
		wait      time.Duration
		keepalive time.Duration // after queueing, if nonzero
		want      error
	}{
		{"lease item first", d, time.Second, 0, ErrTimeout}, // the wait is capped at the lease
		{"wait item first", 2 * d, d, d, ErrTimeout},        // the keepalive re-keys the lease onto the wait's instant
		{"lease strictly earlier", 2 * d, d + 1, d, ErrExpired},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, fc := newFake(t, fastCfg())
			holder, sid := mustOpen(t, m, time.Second), mustOpen(t, m, tc.lease)
			if err := m.Acquire(holder, "k", true, 0); err != nil {
				t.Fatalf("acquire: %v", err)
			}
			w := queue(t, m, sid, "k", false, tc.wait)
			if tc.keepalive != 0 {
				if err := m.KeepAlive(sid, tc.keepalive); err != nil {
					t.Fatalf("keepalive: %v", err)
				}
			}
			fc.Advance(d - 1)
			if _, ok := ended(t, w); ok {
				t.Fatal("the wait ended early")
			}
			fc.Advance(1)
			if err, ok := ended(t, w); !ok || err != tc.want {
				t.Fatalf("wait ended %v with %v, want %v", ok, err, tc.want)
			}
			if m.session(sid) != nil || m.QueueLen("k") != 0 {
				t.Fatalf("session still live or queue not empty (%d) after its lease ran out", m.QueueLen("k"))
			}
		})
	}
}

// TestKeepAliveRekeys: a keepalive that cuts the lease short makes the
// session expire at the new, earlier deadline; one that extends it touches
// neither the heap nor the timer, and the session lives to the new one.
func TestKeepAliveRekeys(t *testing.T) {
	m, fc := newFake(t, fastCfg())
	short, long := mustOpen(t, m, time.Second), mustOpen(t, m, 100*time.Millisecond)
	if err := m.KeepAlive(short, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	fc.Advance(10*time.Millisecond - 1)
	if m.session(short) == nil {
		t.Fatal("expired before the shortened deadline")
	}
	fc.Advance(1)
	if m.session(short) != nil {
		t.Fatal("a lease cut to 10ms outlived it")
	}

	heapState := func() (n int, key time.Time, resets int) {
		s := m.session(long)
		m.mu.Lock()
		defer m.mu.Unlock()
		return len(m.deadlines), s.lease.at, fc.resets
	}
	n0, key0, resets0 := heapState()
	if err := m.KeepAlive(long, time.Second); err != nil {
		t.Fatal(err)
	}
	if n, key, resets := heapState(); n != n0 || !key.Equal(key0) || resets != resets0 {
		t.Fatalf("an extending keepalive touched the heap or the timer: len %d→%d, key %v→%v, resets %d→%d",
			n0, n, key0, key, resets0, resets)
	}
	fc.Advance(time.Second - 1) // the stale key surfaces on the way and is re-keyed, not expired
	if m.session(long) == nil {
		t.Fatal("expired at its old deadline, or before the new one")
	}
	fc.Advance(1)
	if m.session(long) != nil || m.Stats().LeaseExpirations != 2 {
		t.Fatalf("an extended lease outlived its new deadline: %+v", m.Stats())
	}
}

// TestIdleGCBounds: an entry is collected no sooner than IdleTTL and no
// later than 2x IdleTTL after it went idle, whatever the phase of the
// collection pass; and once sessions, waits and entries are all gone the
// timer is not armed at all.
func TestIdleGCBounds(t *testing.T) {
	cfg := fastCfg() // IdleTTL 50ms
	ttl := cfg.IdleTTL
	for _, phase := range []time.Duration{0, 1, ttl / 2, ttl - 1} {
		m, fc := newFake(t, cfg)
		sid := mustOpen(t, m, 10*time.Second)
		if err := m.Acquire(sid, "pin", false, 0); err != nil { // arms the pass at +ttl
			t.Fatal(err)
		}
		fc.Advance(phase)
		if err := m.Acquire(sid, "k", false, 0); err != nil {
			t.Fatal(err)
		}
		if err := m.Release(sid, "k", false); err != nil { // idle from here
			t.Fatal(err)
		}
		fc.Advance(ttl - 1)
		if m.Stats().Entries != 2 {
			t.Fatalf("phase %v: collected %v after going idle, before IdleTTL", phase, ttl-1)
		}
		fc.Advance(ttl + 1)
		if m.Stats().Entries != 1 {
			t.Fatalf("phase %v: still there 2x IdleTTL after going idle", phase)
		}
		if err := m.CloseSession(sid); err != nil {
			t.Fatal(err)
		}
		fc.Advance(2 * ttl)
		if st := m.Stats(); st.Entries != 0 || st.EntriesGCed != 2 || fc.armed() != 0 {
			t.Fatalf("phase %v: %d entries, %d collected, %d timers armed; want 0, 2, 0", phase, st.Entries, st.EntriesGCed, fc.armed())
		}
		m.mu.Lock()
		n := len(m.deadlines)
		m.mu.Unlock()
		if n != 0 {
			t.Fatalf("phase %v: %d items left on the heap of an empty manager", phase, n)
		}
	}
}

// TestNoGoroutine: a manager is not a goroutine — New starts none, on the
// real clock its timer is the runtime's — and a timer callback that runs
// after Close does nothing.
func TestNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	real := New(fastCfg())
	if err := real.Acquire(mustOpen(t, real, time.Second), "k", true, 0); err != nil {
		t.Fatal(err)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines %d → %d across New, Open and Acquire", before, after)
	}
	real.Close()

	m, fc := newFake(t, fastCfg())
	sid := mustOpen(t, m, 10*time.Millisecond)
	if err := m.Acquire(sid, "k", true, 0); err != nil {
		t.Fatal(err)
	}
	late := fc.timers[0].f
	m.Close()
	if fc.armed() != 0 {
		t.Fatal("Close left the timer armed")
	}
	fc.Skip(time.Hour)
	late()
	if st := m.Stats(); st.Entries != 1 || st.EntriesGCed != 0 || st.LeaseExpirations != 0 || fc.armed() != 0 {
		t.Fatalf("a callback after Close did something: %+v, %d timers armed", st, fc.armed())
	}
}

// TestFlightTimestampsAreTheManagersClock: the events the manager records
// carry its own clock's reading — a completion's is t0+Wait — not a second
// wall-clock read inside the recorder.
func TestFlightTimestampsAreTheManagersClock(t *testing.T) {
	cfg := fastCfg()
	cfg.Recorder = obs.NewRecorder(1, 64)
	cfg.SlowLock = 20 * time.Millisecond
	m, fc := newFake(t, cfg)
	t0 := fc.Now()
	holder, waiter := mustOpen(t, m, time.Second), mustOpen(t, m, 100*time.Millisecond)
	if err := m.Acquire(holder, "k", true, 0); err != nil {
		t.Fatal(err)
	}
	w := queue(t, m, waiter, "k", true, -1)
	fc.Advance(30 * time.Millisecond)
	if err := m.Release(holder, "k", true); err != nil {
		t.Fatal(err)
	}
	if err, ok := ended(t, w); !ok || err != nil {
		t.Fatalf("waiter: %v, ended %v", err, ok)
	}
	fc.Advance(70 * time.Millisecond) // the waiter's lease, never renewed
	// A late callback: by the time expire revokes this session the clock has
	// moved on, and the event carries the reading expire was given.
	mustOpen(t, m, 50*time.Millisecond)
	fc.Skip(80 * time.Millisecond)
	m.expire(t0.Add(150 * time.Millisecond))
	type row struct {
		kind obs.Kind
		at   time.Duration
	}
	var got []row
	for _, rec := range cfg.Recorder.Events() { // the grant and its slow report tie: recorded order
		got = append(got, row{rec.Kind, time.Duration(int64(rec.At) - t0.UnixNano())})
	}
	want := []row{
		{obs.KLRTGrant, 30 * time.Millisecond},
		{obs.KSlow, 30 * time.Millisecond},
		{obs.KExpire, 100 * time.Millisecond},
		{obs.KExpire, 150 * time.Millisecond},
	}
	if len(got) != len(want) {
		t.Fatalf("events %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v (all: %+v)", i, got[i], want[i], got)
		}
	}
}
