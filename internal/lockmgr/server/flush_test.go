package server

import (
	"net"
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
