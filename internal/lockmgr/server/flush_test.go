package server

import (
	"bufio"
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"fairrw/internal/lockmgr/wire"
)

// eventually polls cond until it holds, failing the test with what after
// five seconds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// stallPeer connects a client that opens a session, shrinks both socket
// buffers so a modest response queue overfills the pipe, floods n
// keepalives and never reads another byte: a peer with a zero receive
// window. It returns the client and the server's side of the conn.
func stallPeer(t *testing.T, addr string, srv *Server, n int) (*rawClient, *conn) {
	t.Helper()
	stall := dialRaw(t, addr)
	sid := stall.open(t, time.Minute)
	if tc, ok := stall.nc.(*net.TCPConn); ok {
		tc.SetReadBuffer(2048)
	}
	sc := findServerConn(t, srv, stall.nc.LocalAddr())
	if tc, ok := sc.nc.(*net.TCPConn); ok {
		tc.SetWriteBuffer(2048)
	}
	var burst []byte
	for i := 0; i < n; i++ {
		var err error
		burst, err = wire.AppendRequestFrame(burst, &wire.Request{
			Op: wire.OpKeepAlive, SID: sid, Lease: int64(time.Minute)})
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := stall.nc.Write(burst); err != nil {
		t.Fatalf("flood write: %v", err)
	}
	return stall, sc
}

// TestStalledPeerDoesNotBlockOthers: peers with a zero receive window
// (they simply stop reading) must not delay another connection on the
// same worker at all. The loop's one write per cycle never waits, and
// what a stalled socket refuses is that conn's own drain's to write — a
// goroutine nobody else queues behind, gone once its conn is.
func TestStalledPeerDoesNotBlockOthers(t *testing.T) {
	addr, srv := startServerCfg(t, testCfg(), Config{Workers: 1}) // every conn shares the one worker

	c := dial(t, addr)
	sid, err := c.Open(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	goroutines := runtime.NumGoroutine()

	// The 4 000-keepalive flood is 68 KB of responses: far more than the
	// shrunk socket buffers hold, under maxOutq — the parse never pauses.
	const flood = 4000
	stall1, sc1 := stallPeer(t, addr, srv, flood)
	stall2, sc2 := stallPeer(t, addr, srv, flood)
	eventually(t, "both floods answered and both stalled conns left to a drain", func() bool {
		return srv.WorkerStats()[0].BatchOps >= 2*flood && sc1.drainBusy() && sc2.drainBusy()
	})
	if ws := srv.WorkerStats()[0]; ws.Flushes == ws.InlineWrites || ws.FlushStalls < 2 || ws.OutBlocked != 0 {
		t.Fatalf("flushes %d inline %d flush_stalls %d out_blocked %d: the floods did not take the slow path as expected",
			ws.Flushes, ws.InlineWrites, ws.FlushStalls, ws.OutBlocked)
	}

	// The healthy conn must still get synchronous round trips, fast. 20
	// acquire/release pairs should take milliseconds; anything near
	// writeTimeout means a stalled peer is gating the loop.
	start := time.Now()
	for i := 0; i < 20; i++ {
		if err := c.Acquire(sid, "healthy", true, 0); err != nil {
			t.Fatalf("acquire: %v", err)
		}
		if err := c.Release(sid, "healthy", true); err != nil {
			t.Fatalf("release: %v", err)
		}
	}
	d := time.Since(start)
	if d > 2*time.Second {
		t.Fatalf("healthy conn took %v for 20 round trips behind two stalled peers", d)
	}
	t.Logf("healthy conn: 20 round trips in %v beside two stalled peers", d)

	// Killing the stalled sockets fails the drains' writes: both conns are
	// condemned, and their drains and readers are gone.
	stall1.nc.Close()
	stall2.nc.Close()
	eventually(t, "both drains to fail", func() bool { return srv.WorkerStats()[0].WriteErrs == 2 })
	eventually(t, "the drains and readers of the stalled conns to exit", func() bool {
		return runtime.NumGoroutine() <= goroutines
	})
}

// TestShutdownGraceBoundsStalledDrain: a conn the worker has already
// dropped, whose drain is still waiting on a peer that reads nothing,
// stays within reach of Shutdown's force-close — the grace period bounds
// the shutdown, not writeTimeout.
func TestShutdownGraceBoundsStalledDrain(t *testing.T) {
	addr, srv := startServerCfg(t, testCfg(), Config{Workers: 1})
	stall, sc := stallPeer(t, addr, srv, 4000)
	if err := stall.nc.(*net.TCPConn).CloseWrite(); err != nil { // EOF behind the flood: the worker drops the conn
		t.Fatal(err)
	}
	eventually(t, "the stalled conn to be dropped with its drain still running", func() bool {
		return srv.WorkerStats()[0].Drained == 1 && sc.drainBusy()
	})
	start := time.Now()
	srv.Shutdown(100 * time.Millisecond)
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("Shutdown(100ms) took %v behind a stalled drain (writeTimeout is 10s)", d)
	}
	if ws := srv.WorkerStats()[0]; ws.WriteErrs != 1 {
		t.Fatalf("write_errs %d after the force-close, want 1", ws.WriteErrs)
	}
}

// floodPastMaxOutq is a peer that streams requests but reads nothing
// until its parse is paused on maxOutq, then reads every response back,
// checking that each arrives in order and exactly once. It returns the
// server, the server's side of the conn, the client and its session.
//
// The peer is a Unix socket: a shrunk buffer holds responses back there
// as it does on TCP, but reading them back out does not crawl the way a
// window far under loopback TCP's 64 KB segment does.
func floodPastMaxOutq(t *testing.T) (*Server, *conn, *rawClient, uint64) {
	t.Helper()
	ln, err := net.Listen("unix", filepath.Join(t.TempDir(), "lockd.sock"))
	if err != nil {
		t.Fatal(err)
	}
	srv := serveOn(t, ln, testCfg(), Config{Workers: 1})
	nc, err := net.Dial("unix", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	nc.(*net.UnixConn).SetReadBuffer(2048)
	cl := &rawClient{t: t, nc: nc, br: bufio.NewReaderSize(nc, 4096)}
	sid := cl.open(t, time.Minute)
	var sc *conn
	srv.mu.Lock()
	for c := range srv.conns {
		sc = c
	}
	srv.mu.Unlock()
	if sc.rc == nil {
		t.Fatal("a Unix socket conn has no descriptor: its writes would all take the drain")
	}
	sc.nc.(*net.UnixConn).SetWriteBuffer(2048)

	// 20 000 frames owe 340 KB of responses, past maxOutq. Every 1 000th is
	// an open, whose fresh session id (they count up) pins its response's
	// place in the stream; the rest are keepalives.
	const flood, every = 20000, 1000
	var burst []byte
	for i := 0; i < flood; i++ {
		req := wire.Request{Op: wire.OpKeepAlive, SID: sid, Lease: int64(time.Minute)}
		if i%every == every-1 {
			req = wire.Request{Op: wire.OpOpen, Lease: int64(time.Minute)}
		}
		var err error
		if burst, err = wire.AppendRequestFrame(burst, &req); err != nil {
			t.Fatal(err)
		}
	}
	sent := make(chan error, 1)
	go func() {
		_, err := cl.nc.Write(burst)
		sent <- err
	}()
	eventually(t, "the parse to pause on maxOutq", func() bool { return srv.WorkerStats()[0].OutBlocked >= 1 })
	// The server reads the whole flood: what the pause holds back fits the
	// inbox. From here on only the drain can tell the worker to resume.
	select {
	case err := <-sent:
		if err != nil {
			t.Fatalf("flood write: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("flood write did not finish")
	}

	read := make(chan error, 1)
	go func() {
		last := sid
		for i := 0; i < flood; i++ {
			resp, err := cl.tryRead(10 * time.Second)
			switch {
			case err != nil:
				read <- fmt.Errorf("response %d of %d: %v", i, flood, err)
				return
			case resp.Status != wire.StatusOK:
				read <- fmt.Errorf("response %d: status %d", i, resp.Status)
				return
			case i%every == every-1 && resp.SID <= last, i%every != every-1 && resp.SID != 0:
				read <- fmt.Errorf("response %d: sid %d after open sid %d: out of order", i, resp.SID, last)
				return
			}
			last = max(last, resp.SID)
		}
		read <- nil
	}()
	eventually(t, "every response to arrive", func() bool { return len(read) == 1 })
	if err := <-read; err != nil {
		t.Fatal(err)
	}
	return srv, sc, cl, sid
}

// TestMaxOutqPauseAndResume: a flooding peer's parse is paused once the
// responses it is owed pass maxOutq, and resumed by its drain's report
// once it reads again. Every response then arrives, in order and exactly
// once; the conn's next round trip is written inline again; and the
// drain, gone, has left no array larger than a frame on the conn (the
// queue grew past maxOutq, far over wire.MaxFrame, to pause the parse).
func TestMaxOutqPauseAndResume(t *testing.T) {
	srv, sc, cl, sid := floodPastMaxOutq(t)
	eventually(t, "the drain to exit", func() bool { return !sc.drainBusy() })
	sc.fmu.Lock()
	outCap, spareCap := cap(sc.out), cap(sc.spare)
	sc.fmu.Unlock()
	if outCap > wire.MaxFrame || spareCap > wire.MaxFrame {
		t.Fatalf("the drain kept arrays of cap %d and %d past its exit, want each <= %d", outCap, spareCap, wire.MaxFrame)
	}

	// One more round trip, with an answer no flood response has: an extra
	// flood response would be read in its place.
	before := srv.WorkerStats()[0]
	cl.write(&wire.Request{Op: wire.OpRelease, SID: sid, Excl: true, Name: "unheld"})
	if resp := cl.read(5 * time.Second); resp.Status != wire.StatusNotHeld {
		t.Fatalf("round trip after the flood: status %d, want NotHeld", resp.Status)
	}
	eventually(t, "the round trip's write to be booked inline", func() bool {
		return srv.WorkerStats()[0].InlineWrites == before.InlineWrites+1
	})
	if ws := srv.WorkerStats()[0]; ws.Writevs != before.Writevs+1 || ws.FlushStalls != before.FlushStalls {
		t.Fatalf("writes %d -> %d, flush_stalls %d -> %d: the round trip did not take one inline write",
			before.Writevs, ws.Writevs, before.FlushStalls, ws.FlushStalls)
	}
}

// TestIdleConnKeepsNoBurstArrays: once the flood is answered and the conn
// idles, none of its five arrays keeps the burst's size. The flood grows
// each past wire.MaxFrame: the inbox and pending hold the requests parked
// behind the pause, wbuf a round's responses, out and spare the queue.
func TestIdleConnKeepsNoBurstArrays(t *testing.T) {
	_, sc, _, _ := floodPastMaxOutq(t)
	eventually(t, "the drain to exit", func() bool { return !sc.drainBusy() })
	sc.w.loopMu.Lock() // the test is the loop: no cycle is running
	caps := map[string]int{"pending": cap(sc.pending), "wbuf": cap(sc.wbuf)}
	sc.w.release()
	sc.mu.Lock()
	caps["inbox"] = cap(sc.inbox)
	sc.mu.Unlock()
	sc.fmu.Lock()
	caps["out"], caps["spare"] = cap(sc.out), cap(sc.spare)
	sc.fmu.Unlock()
	for name, n := range caps {
		if n > wire.MaxFrame {
			t.Errorf("idle conn keeps %s at cap %d, want <= %d", name, n, wire.MaxFrame)
		}
	}
}
