package server

import (
	"bufio"
	"net"
	"runtime"
	"testing"
	"time"

	"fairrw/internal/lockmgr"
	"fairrw/internal/lockmgr/client"
	"fairrw/internal/lockmgr/wire"
)

// waitWaiting polls the manager, in process, until n acquires are queued.
func waitWaiting(t *testing.T, srv *Server, n int64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); srv.m.Stats().Waiting != n; {
		if time.Now().After(deadline) {
			t.Fatalf("never reached %d queued acquires (waiting=%d)", n, srv.m.Stats().Waiting)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func sumWorkers(srv *Server) (ws WorkerStats) {
	for _, s := range srv.WorkerStats() {
		ws.Conns += s.Conns
		ws.Wakeups += s.Wakeups
		ws.Donations += s.Donations
		ws.Parks += s.Parks
		ws.Unparks += s.Unparks
	}
	return ws
}

// TestHandoffPairAllocs pins the hand-off path — an acquire that parks
// behind the other client's hold, the release that grants it, both
// answers written — at zero allocations per pair, process-wide, over
// loopback TCP: no goroutine, closure, timer, channel or name copy per
// parked acquire. It is the alloc guard for BenchmarkHandoffTwoClients.
func TestHandoffPairAllocs(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewWithConfig(lockmgr.New(quietCfg()), Config{Workers: 2})
	go srv.Serve(ln)
	defer srv.Shutdown(time.Second)

	var cls [2]*client.Conn
	var sids [2]uint64
	var start [2]chan struct{}
	granted := make(chan error)
	for i := range cls {
		cls[i] = dial(t, ln.Addr().String())
		if sids[i], err = cls[i].Open(time.Hour); err != nil {
			t.Fatal(err)
		}
		start[i] = make(chan struct{})
		go func(i int) { // client i's blocking acquires, one per signal
			for range start[i] {
				granted <- cls[i].Acquire(sids[i], "k", true, 10*time.Second)
			}
		}(i)
		defer close(start[i])
	}
	holder := 0
	if err := cls[holder].Acquire(sids[holder], "k", true, 0); err != nil {
		t.Fatal(err)
	}
	pair := func() {
		waiter := 1 - holder
		start[waiter] <- struct{}{}
		for srv.m.QueueLen("k") == 0 {
			runtime.Gosched()
		}
		if err := cls[holder].Release(sids[holder], "k", true); err != nil {
			t.Fatalf("release: %v", err)
		}
		if err := <-granted; err != nil {
			t.Fatalf("parked acquire: %v", err)
		}
		holder = waiter
	}
	p0 := sumWorkers(srv).Parks
	for i := 0; i < 64; i++ {
		pair() // warm: wait node, deadline heap and timer, completion lists
	}
	if allocs := testing.AllocsPerRun(200, pair); allocs != 0 {
		t.Fatalf("parked acquire+release pair allocates %.1f times, want 0", allocs)
	}
	if got := sumWorkers(srv).Parks - p0; got != 64+201 {
		t.Fatalf("%d parks over %d pairs: the pairs measured did not all park", got, 64+201)
	}
}

// TestGrantSharesTheReleasersRound: the release that frees a lock answers
// the acquire parked behind it in its own loop cycle — the releaser's
// goroutine is the waiter's loop for the grant (it is free, so nothing is
// listed), and both responses are out with no cycle run for a listed
// event on either worker.
func TestGrantSharesTheReleasersRound(t *testing.T) {
	addr, srv := startServerCfg(t, testCfg(), Config{Workers: 2})
	holder, waiter := dial(t, addr), dial(t, addr) // dealt to the two workers
	hsid, err := holder.Open(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	wsid, err := waiter.Open(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if err := holder.Acquire(hsid, "k", true, 0); err != nil {
		t.Fatal(err)
	}
	granted := make(chan error, 1)
	go func() { granted <- waiter.Acquire(wsid, "k", true, -1) }()
	waitWaiting(t, srv, 1)
	before := sumWorkers(srv)
	for { // the counters have settled
		time.Sleep(20 * time.Millisecond)
		now := sumWorkers(srv)
		if now == before {
			break
		}
		before = now
	}

	if err := holder.Release(hsid, "k", true); err != nil {
		t.Fatal(err)
	}
	if err := <-granted; err != nil {
		t.Fatalf("parked acquire: %v", err)
	}
	after := sumWorkers(srv)
	if after.Wakeups != before.Wakeups || after.Unparks != before.Unparks+1 {
		t.Fatalf("grant cost %d cycles for listed events and %d unparks, want 0 and 1",
			after.Wakeups-before.Wakeups, after.Unparks-before.Unparks)
	}
}

// chanListener hands Serve one end of a net.Pipe per dial.
type chanListener chan net.Conn

func (l chanListener) Accept() (net.Conn, error) {
	if c, ok := <-l; ok {
		return c, nil
	}
	return nil, net.ErrClosed
}
func (l chanListener) Close() error   { return nil }
func (l chanListener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "pipe"} }

// TestParkedAcquiresCostNoGoroutine: a thousand acquires park — on
// net.Pipe conns, which have no descriptor and so write only through
// their drain — without one goroutine starting; a scalar
// release then grants the head of the queue through its conn.
func TestParkedAcquiresCostNoGoroutine(t *testing.T) {
	const n = 1000
	ln := make(chanListener)
	srv := NewWithConfig(lockmgr.New(quietCfg()), Config{Workers: 2})
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Shutdown(5 * time.Second)
		close(ln)
		<-served
	}()
	hsid, err := srv.m.Open(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.m.Acquire(hsid, "k", true, 0); err != nil {
		t.Fatal(err)
	}
	peers := make([]net.Conn, n)
	frames := make([][]byte, n)
	for i := range peers {
		var theirs net.Conn
		peers[i], theirs = net.Pipe()
		defer peers[i].Close()
		ln <- theirs
		sid, err := srv.m.Open(time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		frames[i], _ = wire.AppendRequestFrame(nil, &wire.Request{Op: wire.OpAcquire, SID: sid, Excl: true, Wait: -1, Name: "k"})
	}
	for deadline := time.Now().Add(5 * time.Second); ; { // every conn registered, every reader reading
		var conns int64
		for _, ws := range srv.WorkerStats() {
			conns += ws.Conns
		}
		if conns == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d conns registered", conns, n)
		}
		time.Sleep(time.Millisecond)
	}

	goroutines := runtime.NumGoroutine()
	for i, p := range peers {
		if _, err := p.Write(frames[i]); err != nil {
			t.Fatal(err)
		}
		waitWaiting(t, srv, int64(i+1)) // one at a time: queue order is conn order
	}
	if got := runtime.NumGoroutine(); got != goroutines {
		t.Fatalf("%d goroutines with %d acquires parked, %d before", got, n, goroutines)
	}
	if ws := sumWorkers(srv); ws.Parks != n || ws.Unparks != 0 {
		t.Fatalf("parks %d unparks %d, want %d and 0", ws.Parks, ws.Unparks, n)
	}

	if err := srv.m.Release(hsid, "k", true); err != nil {
		t.Fatal(err)
	}
	rc := &rawClient{t: t, nc: peers[0], br: bufio.NewReader(peers[0])}
	if resp := rc.read(5 * time.Second); resp.Status != wire.StatusOK {
		t.Fatalf("head of the queue got status %d, want OK", resp.Status)
	}
	if got := srv.m.QueueLen("k"); got != n-1 {
		t.Fatalf("QueueLen %d after one grant, want %d", got, n-1)
	}
}

// TestDeadConnLeavesQueue: a client that disconnects while its acquire is
// parked leaves the lock's queue at once — not when its wait or lease
// runs out — so it neither blocks the waiters behind it nor is granted a
// hold nobody will ever release.
func TestDeadConnLeavesQueue(t *testing.T) {
	addr, srv := startServerCfg(t, testCfg(), Config{Workers: 2})
	holder := dial(t, addr)
	hsid, err := holder.Open(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if err := holder.Acquire(hsid, "k", true, 0); err != nil {
		t.Fatal(err)
	}
	w1 := dialRaw(t, addr)
	sid1 := w1.open(t, time.Minute)
	w1.write(&wire.Request{Op: wire.OpAcquire, SID: sid1, Excl: true, Wait: -1, Name: "k"})
	waitWaiting(t, srv, 1)
	w1.nc.Close()
	waitWaiting(t, srv, 0)

	w2 := dial(t, addr)
	sid2, err := w2.Open(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	granted := make(chan error, 1)
	go func() { granted <- w2.Acquire(sid2, "k", true, -1) }()
	waitWaiting(t, srv, 1)
	if err := holder.Release(hsid, "k", true); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-granted:
		if err != nil {
			t.Fatalf("waiter behind the dead conn: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter behind the dead conn was not granted by the release")
	}
	if n := srv.m.QueueLen("k"); n != 0 {
		t.Fatalf("QueueLen %d, want 0", n)
	}
	if err := srv.m.Release(sid1, "k", true); err != lockmgr.ErrNotHeld {
		t.Fatalf("dead conn's (live) session: release = %v, want ErrNotHeld — it was granted nothing", err)
	}
}

// TestParkedAcquireEndings: what a parked conn is told when its acquire
// does not end in a grant. A bounded wait answers StatusTimeout and a
// lapsed lease StatusExpired, both from the manager's one timer; closing
// the session answers StatusExpired too; and a waiter leaving the middle
// of the queue does not reorder the rest.
func TestParkedAcquireEndings(t *testing.T) {
	addr, srv := startServerCfg(t, testCfg(), Config{Workers: 2})
	holder := dial(t, addr)
	hsid, err := holder.Open(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if err := holder.Acquire(hsid, "k", true, 0); err != nil {
		t.Fatal(err)
	}
	park := func(wait time.Duration, queued int64) (*rawClient, uint64) {
		rc := dialRaw(t, addr)
		sid := rc.open(t, time.Minute)
		rc.write(&wire.Request{Op: wire.OpAcquire, SID: sid, Excl: true, Wait: int64(wait), Name: "k"})
		waitWaiting(t, srv, queued)
		return rc, sid
	}
	w1, sid1 := park(-1, 1)
	t0 := time.Now()
	w2, _ := park(20*time.Millisecond, 2)
	w3, _ := park(-1, 3)
	w4, sid4 := park(-1, 4)
	w5 := dialRaw(t, addr) // queues behind them, and its lease lapses there
	w5.write(&wire.Request{Op: wire.OpAcquire, SID: w5.open(t, 50*time.Millisecond), Excl: true, Wait: -1, Name: "k"})

	if resp := w2.read(5 * time.Second); resp.Status != wire.StatusTimeout {
		t.Fatalf("bounded wait: status %d, want Timeout", resp.Status)
	}
	if d := time.Since(t0); d < 20*time.Millisecond || d > time.Second {
		t.Fatalf("20ms wait answered after %v", d)
	}
	if err := holder.CloseSession(sid4); err != nil { // someone closes the tail waiter's session
		t.Fatal(err)
	}
	if resp := w4.read(5 * time.Second); resp.Status != wire.StatusExpired {
		t.Fatalf("session closed while queued: status %d, want Expired", resp.Status)
	}
	if resp := w5.read(5 * time.Second); resp.Status != wire.StatusExpired {
		t.Fatalf("lease lapsed while queued: status %d, want Expired", resp.Status)
	}

	// w1 and w3 are left, in that order.
	if err := holder.Release(hsid, "k", true); err != nil {
		t.Fatal(err)
	}
	if resp := w1.read(5 * time.Second); resp.Status != wire.StatusOK {
		t.Fatalf("head waiter: status %d, want OK", resp.Status)
	}
	w3.expectSilence(50 * time.Millisecond)
	w1.write(&wire.Request{Op: wire.OpRelease, SID: sid1, Excl: true, Name: "k"})
	if resp := w1.read(5 * time.Second); resp.Status != wire.StatusOK {
		t.Fatalf("head waiter's release: status %d", resp.Status)
	}
	if resp := w3.read(5 * time.Second); resp.Status != wire.StatusOK {
		t.Fatalf("last waiter: status %d, want OK", resp.Status)
	}
	waitWaiting(t, srv, 0)
}
