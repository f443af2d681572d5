package server

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"fairrw/internal/lockmgr"
	"fairrw/internal/lockmgr/wire"
)

// TestNoListedEventIsStranded is the lost-wakeup test of the loop's
// hand-over rule. A real reader is the loop and is held inside its cycle's
// socket write — past the cycle's last look at the event list — while a
// readiness event and a cross-worker completion are brought to the same
// worker: both bringers find the loop busy, list their event and leave.
// When the holder finishes, both must be answered with no further input.
// Only release's look at the list after its Unlock can do that.
func TestNoListedEventIsStranded(t *testing.T) {
	addr, srv := startServerCfg(t, testCfg(), Config{Workers: 2})
	// Dealt round-robin: a, b and c to worker 0, h (and a filler) to worker 1.
	a, h, b, filler, c := dialRaw(t, addr), dialRaw(t, addr), dialRaw(t, addr), dialRaw(t, addr), dialRaw(t, addr)
	asid, hsid, bsid := a.open(t, time.Minute), h.open(t, time.Minute), b.open(t, time.Minute)
	filler.open(t, time.Minute)
	csid := c.open(t, time.Minute)
	w := srv.workers[0]
	sa := findServerConn(t, srv, a.nc.LocalAddr())
	for rc, want := range map[*rawClient]*worker{a: w, b: w, c: w, h: srv.workers[1]} {
		if got := findServerConn(t, srv, rc.nc.LocalAddr()).w; got != want {
			t.Fatalf("conn dealt to worker %d, want %d", got.idx, want.idx)
		}
	}

	h.write(&wire.Request{Op: wire.OpAcquire, SID: hsid, Excl: true, Name: "k"})
	if resp := h.read(5 * time.Second); resp.Status != wire.StatusOK {
		t.Fatalf("holder acquire: status %d", resp.Status)
	}
	c.write(&wire.Request{Op: wire.OpAcquire, SID: csid, Excl: true, Wait: -1, Name: "k"})
	waitWaiting(t, srv, 1)

	// a's next socket write stops the loop until gate closes.
	held, gate := make(chan struct{}, 1), make(chan struct{})
	w.loopMu.Lock() // the test is the loop: rawWrite is the loop's
	sa.rawWrite = func(fd uintptr) bool {
		held <- struct{}{}
		<-gate
		sa.wrote, _ = syscall.Write(int(fd), sa.wbuf)
		return true
	}
	w.release()
	before := srv.WorkerStats()[0]
	a.write(&wire.Request{Op: wire.OpKeepAlive, SID: asid, Lease: int64(time.Minute)})
	select {
	case <-held:
	case <-time.After(5 * time.Second):
		t.Fatal("a's reader never reached the socket write")
	}

	b.write(&wire.Request{Op: wire.OpKeepAlive, SID: bsid, Lease: int64(time.Minute)})
	h.write(&wire.Request{Op: wire.OpRelease, SID: hsid, Excl: true, Name: "k"}) // worker 1 grants c
	if resp := h.read(5 * time.Second); resp.Status != wire.StatusOK {
		t.Fatalf("holder release: status %d", resp.Status)
	}
	eventually(t, "b's readiness and c's completion to be listed at the busy worker", func() bool {
		w.evMu.Lock()
		defer w.evMu.Unlock()
		return len(w.evs) == 2
	})

	close(gate)
	for name, rc := range map[string]*rawClient{"a (the holder's own)": a, "b (listed readiness)": b, "c (listed completion)": c} {
		resp, err := rc.tryRead(2 * time.Second)
		if err != nil || resp.Status != wire.StatusOK {
			t.Errorf("%s: status %d, err %v: a listed event was stranded", name, resp.Status, err)
		}
	}
	after := srv.WorkerStats()[0]
	if after.Wakeups == before.Wakeups || after.Donations != before.Donations+1 {
		t.Errorf("wakeups %d -> %d, donations %d -> %d: want a's cycle the only one run by its bringer, and the listed events run after it",
			before.Wakeups, after.Wakeups, before.Donations, after.Donations)
	}
}

// TestNewStartsNoGoroutine: a server is no goroutine until it has a
// connection, and none again after Shutdown — whether its conns were
// silent, busy, parked in the manager or stalled behind a drain.
func TestNewStartsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	srv := NewWithConfig(lockmgr.New(testCfg()), Config{Workers: 2})
	if got := runtime.NumGoroutine() - before; got > 0 {
		t.Fatalf("NewWithConfig(Workers: 2) started %d goroutines, want 0", got)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	addr := ln.Addr().String()

	silent, live, parked := dialRaw(t, addr), dialRaw(t, addr), dialRaw(t, addr)
	eventually(t, "the conn gauge to count conns that have sent nothing", func() bool { return sumWorkers(srv).Conns == 3 })
	lsid, psid := live.open(t, time.Minute), parked.open(t, time.Minute)
	live.write(&wire.Request{Op: wire.OpAcquire, SID: lsid, Excl: true, Name: "k"})
	if resp := live.read(5 * time.Second); resp.Status != wire.StatusOK {
		t.Fatalf("acquire: status %d", resp.Status)
	}
	parked.write(&wire.Request{Op: wire.OpAcquire, SID: psid, Excl: true, Wait: -1, Name: "k"})
	waitWaiting(t, srv, 1)
	_, sc := stallPeer(t, addr, srv, 4000)
	eventually(t, "the stalled conn to be left to a drain", sc.drainBusy)
	if got := sumWorkers(srv).Conns; got != 4 {
		t.Fatalf("conn gauge %d, want 4", got)
	}

	srv.Shutdown(100 * time.Millisecond) // the stalled drain needs the force-close
	if err := <-served; err != nil {
		t.Fatalf("Serve returned %v after drain, want nil", err)
	}
	if resp := parked.read(5 * time.Second); resp.Status != wire.StatusExpired {
		t.Fatalf("parked acquire across Shutdown: status %d, want Expired", resp.Status)
	}
	if _, err := silent.tryRead(5 * time.Second); err == nil {
		t.Fatal("silent conn got a frame, want EOF")
	}
	if got := sumWorkers(srv).Conns; got != 0 {
		t.Fatalf("conn gauge %d after Shutdown, want 0", got)
	}
	eventually(t, "every reader and drain to exit", func() bool { return runtime.NumGoroutine() <= before })
}

// TestFourWorkerHammerAnswersExactlyOnce drives every way an event reaches
// a loop at once, on four workers: cross-worker grants (contenders on three
// shared keys, held for a moment), the manager's timer (1 ms bounded
// waits), CancelWait on peer close (quitters park and hang up; their short
// leases free what they were granted meanwhile), and Shutdown in the
// middle of it. Every request is answered exactly once: a contender reads
// one response per request, and the streamers' pipelined responses follow
// a four-status pattern that a lost or doubled answer would shift.
func TestFourWorkerHammerAnswersExactlyOnce(t *testing.T) {
	mcfg := testCfg()
	addr, srv := startServerCfg(t, mcfg, Config{Workers: 4})
	var stopping atomic.Bool
	var pairs, timeouts, streamed atomic.Int64
	var wg sync.WaitGroup

	call := func(rc *rawClient, req *wire.Request) (wire.Response, error) {
		if err := rc.tryWrite(req); err != nil {
			return wire.Response{}, err
		}
		return rc.tryRead(10 * time.Second)
	}
	contender := func(g int, rc *rawClient, sid uint64) {
		defer wg.Done()
		rng := rand.New(rand.NewSource(int64(g) * 7919))
		for {
			name, excl, wait := fmt.Sprintf("h-%d", rng.Intn(3)), rng.Intn(4) != 0, int64(-1)
			if rng.Intn(3) == 0 {
				wait = int64(time.Millisecond)
			}
			resp, err := call(rc, &wire.Request{Op: wire.OpAcquire, SID: sid, Excl: excl, Wait: wait, Name: name})
			if err == nil && resp.Status == wire.StatusOK {
				if rng.Intn(2) == 0 {
					time.Sleep(time.Duration(rng.Intn(2000)) * time.Microsecond)
				}
				resp, err = call(rc, &wire.Request{Op: wire.OpRelease, SID: sid, Excl: excl, Name: name})
				if err == nil && resp.Status == wire.StatusOK {
					pairs.Add(1)
					continue
				}
			}
			switch {
			case err == nil && resp.Status == wire.StatusTimeout && wait >= 0:
				timeouts.Add(1)
			case !stopping.Load():
				t.Errorf("contender %d: status %d, err %v before Shutdown", g, resp.Status, err)
				return
			case err != nil:
				return // the drain closed the conn
			case resp.Status != wire.StatusExpired:
				t.Errorf("contender %d: status %d during Shutdown, want Expired", g, resp.Status)
				return
			default: // told the session is gone, once: nothing may follow
				if resp, err := rc.tryRead(10 * time.Second); err == nil {
					t.Errorf("contender %d: status %d after the drain's Expired, want EOF", g, resp.Status)
				}
				return
			}
		}
	}

	quitter := func(g int) {
		defer wg.Done()
		for i := 0; !stopping.Load(); i++ {
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				return // the listener closed under us
			}
			rc := &rawClient{t: t, nc: nc, br: bufio.NewReaderSize(nc, 4096)}
			resp, err := call(rc, &wire.Request{Op: wire.OpOpen, Lease: int64(30 * time.Millisecond)})
			if err != nil || resp.Status != wire.StatusOK {
				nc.Close()
				if !stopping.Load() {
					t.Errorf("quitter %d open: status %d, err %v", g, resp.Status, err)
				}
				return
			}
			rc.tryWrite(&wire.Request{Op: wire.OpAcquire, SID: resp.SID, Excl: true, Wait: -1, Name: fmt.Sprintf("h-%d", (g+i)%3)})
			time.Sleep(time.Duration(1+(g+i)%3) * time.Millisecond)
			nc.Close() // parked or not: the server cancels the wait, the lease frees a grant
		}
	}

	// A streamer pipelines acquire, acquire, release, release on a key of its
	// own; the answers are OK, Held, OK, NotHeld, in that order, until
	// Shutdown closes the manager and every later one is Expired.
	pattern := [4]wire.Status{wire.StatusOK, wire.StatusHeld, wire.StatusOK, wire.StatusNotHeld}
	streamWriter := func(g int, rc *rawClient, sid uint64, sent *atomic.Int64) {
		defer wg.Done()
		name := fmt.Sprintf("own-%d", g)
		var burst []byte
		for i := 0; i < 8; i++ {
			for j := 0; j < 4; j++ {
				op := wire.OpAcquire
				if j >= 2 {
					op = wire.OpRelease
				}
				burst, _ = wire.AppendRequestFrame(burst, &wire.Request{Op: op, SID: sid, Excl: true, Name: name})
			}
		}
		for !stopping.Load() {
			sent.Add(32) // before the write: the answers may beat the writer back
			if _, err := rc.nc.Write(burst); err != nil {
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	streamReader := func(g int, rc *rawClient, sent *atomic.Int64) {
		defer wg.Done()
		expired := false
		for i := 0; ; i++ {
			resp, err := rc.tryRead(10 * time.Second)
			if err != nil {
				if !stopping.Load() {
					t.Errorf("streamer %d: %v after %d answers, before Shutdown", g, err, i)
				} else if int64(i) > sent.Load() {
					t.Errorf("streamer %d: %d answers to %d requests", g, i, sent.Load())
				}
				streamed.Add(int64(i))
				return
			}
			expired = expired || (resp.Status == wire.StatusExpired && stopping.Load())
			if want := pattern[i%4]; (expired && resp.Status != wire.StatusExpired) || (!expired && resp.Status != want) {
				t.Errorf("streamer %d: answer %d has status %d, want %d (expired=%v): an answer was lost or doubled",
					g, i, resp.Status, want, expired)
				return
			}
		}
	}

	// Dial everything here so the deal is known: three conns of each kind
	// per worker.
	const contenders, streamers, quitters = 12, 4, 4
	for g := 0; g < contenders; g++ {
		rc := dialRaw(t, addr)
		wg.Add(1)
		go contender(g, rc, rc.open(t, time.Minute))
	}
	for g := 0; g < streamers; g++ {
		rc, sent := dialRaw(t, addr), new(atomic.Int64)
		sid := rc.open(t, time.Minute)
		wg.Add(2)
		go streamWriter(g, rc, sid, sent)
		go streamReader(g, rc, sent)
	}
	for g := 0; g < quitters; g++ {
		wg.Add(1)
		go quitter(g)
	}

	time.Sleep(150 * time.Millisecond)
	stopping.Store(true)
	srv.Shutdown(5 * time.Second)
	wg.Wait()
	if pairs.Load() == 0 || timeouts.Load() == 0 || streamed.Load() == 0 {
		t.Errorf("%d contended pairs, %d timeouts, %d streamed answers: the hammer missed a path",
			pairs.Load(), timeouts.Load(), streamed.Load())
	}
	if got := sumWorkers(srv).Conns; got != 0 {
		t.Errorf("conn gauge %d after Shutdown, want 0", got)
	}
	ws := sumWorkers(srv)
	t.Logf("%d pairs, %d timeouts, %d streamed answers; %d cycles by their bringer, %d for listed events",
		pairs.Load(), timeouts.Load(), streamed.Load(), ws.Donations, ws.Wakeups)
}
