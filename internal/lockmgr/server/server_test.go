package server

import (
	"encoding/json"
	"net"
	"sync"
	"testing"
	"time"

	"fairrw/internal/lockmgr"
	"fairrw/internal/lockmgr/client"
)

// startServer brings up a Manager+Server on a loopback port and returns
// the address. Shutdown runs in cleanup and is verified to terminate.
func startServer(t *testing.T, cfg lockmgr.Config) (addr string, srv *Server) {
	t.Helper()
	return startServerCfg(t, cfg, Config{})
}

// startServerCfg is startServer with an explicit server Config, for
// tests that pin the worker count.
func startServerCfg(t *testing.T, mcfg lockmgr.Config, scfg Config) (addr string, srv *Server) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	return ln.Addr().String(), serveOn(t, ln, mcfg, scfg)
}

// serveOn serves a new Manager+Server on ln until the test's cleanup
// shuts it down.
func serveOn(t *testing.T, ln net.Listener, mcfg lockmgr.Config, scfg Config) *Server {
	t.Helper()
	srv := NewWithConfig(lockmgr.New(mcfg), scfg)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Shutdown(5 * time.Second)
		select {
		case err := <-served:
			if err != nil {
				t.Errorf("Serve returned %v after drain, want nil", err)
			}
		case <-time.After(10 * time.Second):
			t.Error("Serve did not return after Shutdown")
		}
	})
	return srv
}

func testCfg() lockmgr.Config {
	return lockmgr.Config{
		IdleTTL: 50 * time.Millisecond,
	}
}

func dial(t *testing.T, addr string) *client.Conn {
	t.Helper()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestEndToEnd drives the whole stack: open, acquire in both modes with
// every wait flavor, keepalive, stats, release, close session.
func TestEndToEnd(t *testing.T) {
	addr, _ := startServer(t, testCfg())
	c := dial(t, addr)

	sid, err := c.Open(2 * time.Second)
	if err != nil || sid == 0 {
		t.Fatalf("open: sid=%d err=%v", sid, err)
	}
	if err := c.Acquire(sid, "cfg", false, 0); err != nil {
		t.Fatalf("shared try: %v", err)
	}
	if err := c.Acquire(sid, "cfg", false, -1); err != nil {
		t.Fatalf("second shared: %v", err)
	}
	// Exclusive try from a second session fails over the readers.
	c2 := dial(t, addr)
	sid2, err := c2.Open(2 * time.Second)
	if err != nil {
		t.Fatalf("open2: %v", err)
	}
	if err := c2.Acquire(sid2, "cfg", true, 0); err != lockmgr.ErrTimeout {
		t.Fatalf("excl try over readers = %v, want ErrTimeout", err)
	}
	if err := c2.Acquire(sid2, "cfg", true, 20*time.Millisecond); err != lockmgr.ErrTimeout {
		t.Fatalf("excl timed over readers = %v, want ErrTimeout", err)
	}
	if err := c.KeepAlive(sid, 2*time.Second); err != nil {
		t.Fatalf("keepalive: %v", err)
	}
	if err := c.Release(sid, "cfg", false); err != nil {
		t.Fatalf("release: %v", err)
	}
	if err := c.Release(sid, "cfg", false); err != nil {
		t.Fatalf("release 2: %v", err)
	}
	if err := c.Release(sid, "cfg", false); err != lockmgr.ErrNotHeld {
		t.Fatalf("over-release = %v, want ErrNotHeld", err)
	}
	if err := c2.Acquire(sid2, "cfg", true, -1); err != nil {
		t.Fatalf("excl after drain: %v", err)
	}

	raw, err := c.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	var snap lockmgr.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("stats json: %v", err)
	}
	if snap.SharedGrants != 2 || snap.ExclGrants != 1 || snap.Sessions != 2 {
		t.Fatalf("stats snapshot: %+v", snap)
	}

	if err := c2.CloseSession(sid2); err != nil {
		t.Fatalf("close session: %v", err)
	}
	if err := c2.Release(sid2, "cfg", true); err != lockmgr.ErrExpired {
		t.Fatalf("release after close = %v, want ErrExpired", err)
	}
}

// TestPipelined drives several requests through one Flush: the server
// must execute them strictly in order and answer every one (responses
// coalesce into fewer segments, but none may be lost or reordered).
func TestPipelined(t *testing.T) {
	addr, _ := startServer(t, testCfg())
	c := dial(t, addr)
	sid, err := c.Open(2 * time.Second)
	if err != nil {
		t.Fatalf("open: %v", err)
	}

	// shared, shared, release, release, release (over-release) in one batch.
	for i := 0; i < 2; i++ {
		if err := c.QueueAcquire(sid, "p", false, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := c.QueueRelease(sid, "p", false); err != nil {
			t.Fatal(err)
		}
	}
	errs, err := c.Flush(nil)
	if err != nil {
		t.Fatalf("flush: %v", err)
	}
	want := []error{nil, nil, nil, nil, lockmgr.ErrNotHeld}
	if len(errs) != len(want) {
		t.Fatalf("got %d responses, want %d", len(errs), len(want))
	}
	for i := range want {
		if errs[i] != want[i] {
			t.Fatalf("op %d: got %v, want %v", i, errs[i], want[i])
		}
	}

	// An empty flush is a no-op, and the conn still works synchronously.
	if errs, err := c.Flush(nil); err != nil || len(errs) != 0 {
		t.Fatalf("empty flush: %v %v", errs, err)
	}
	if err := c.Acquire(sid, "p", true, 0); err != nil {
		t.Fatalf("sync acquire after batch: %v", err)
	}

	// Queued-but-unflushed requests make synchronous calls an error
	// rather than silently interleaving frames.
	if err := c.QueueRelease(sid, "p", true); err != nil {
		t.Fatal(err)
	}
	if err := c.Release(sid, "p", true); err == nil {
		t.Fatal("sync call with queued requests should fail")
	}
	if errs, err := c.Flush(nil); err != nil || errs[0] != nil {
		t.Fatalf("flush queued release: %v %v", errs, err)
	}
}

// TestKilledClientOverTCP is the acceptance scenario end to end: a client
// acquires exclusively, its process "dies" (connection closed, no
// keepalive), and the hold must be reclaimed when the lease runs out,
// granting the FIFO of waiters parked by other clients in arrival order.
func TestKilledClientOverTCP(t *testing.T) {
	addr, _ := startServer(t, testCfg())
	const lease = 100 * time.Millisecond

	victim := dial(t, addr)
	vsid, err := victim.Open(lease)
	if err != nil {
		t.Fatalf("open victim: %v", err)
	}
	if err := victim.Acquire(vsid, "k", true, 0); err != nil {
		t.Fatalf("victim acquire: %v", err)
	}
	victim.Close() // the crash: no release, no keepalive, TCP gone

	var mu sync.Mutex
	var order []int
	grantAt := make([]time.Time, 3)
	var wg sync.WaitGroup
	start := time.Now()
	for i, excl := range []bool{true, false, false} {
		i, excl := i, excl
		conn := dial(t, addr)
		sid, err := conn.Open(5 * time.Second)
		if err != nil {
			t.Fatalf("waiter %d open: %v", i, err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := conn.Acquire(sid, "k", excl, -1); err != nil {
				t.Errorf("waiter %d acquire: %v", i, err)
				return
			}
			mu.Lock()
			order = append(order, i)
			grantAt[i] = time.Now()
			mu.Unlock()
			if excl {
				time.Sleep(2 * time.Millisecond)
			}
			if err := conn.Release(sid, "k", excl); err != nil {
				t.Errorf("waiter %d release: %v", i, err)
			}
		}()
		// Wait for this client's request to be queued server-side before
		// starting the next, pinning arrival order.
		probe := dial(t, addr)
		deadline := time.Now().Add(5 * time.Second)
		for {
			raw, err := probe.Stats()
			if err != nil {
				t.Fatalf("stats: %v", err)
			}
			var snap lockmgr.Snapshot
			if err := json.Unmarshal(raw, &snap); err != nil {
				t.Fatal(err)
			}
			if snap.Waiting == int64(i+1) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("waiter %d never queued (waiting=%d)", i, snap.Waiting)
			}
			time.Sleep(time.Millisecond)
		}
	}
	wg.Wait()

	if order[0] != 0 {
		t.Fatalf("grant order %v, want writer 0 first", order)
	}
	if reclaim := grantAt[0].Sub(start); reclaim > 2*lease {
		t.Fatalf("reclaim took %v, want <= %v", reclaim, 2*lease)
	}
}

// TestMalformedFrameDropsConn: garbage gets the connection dropped while
// the server keeps serving everyone else.
func TestMalformedFrameDropsConn(t *testing.T) {
	addr, _ := startServer(t, testCfg())

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	// Valid length prefix, garbage payload: decoder must reject and the
	// server must hang up (read returns EOF, not a stuck connection).
	if _, err := raw.Write([]byte{0, 0, 0, 5, 0xde, 0xad, 0xbe, 0xef, 0x99}); err != nil {
		t.Fatal(err)
	}
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := raw.Read(make([]byte, 1)); err == nil {
		t.Fatal("server answered a malformed frame")
	}

	// The server is still healthy for well-formed clients.
	c := dial(t, addr)
	sid, err := c.Open(time.Second)
	if err != nil {
		t.Fatalf("open after garbage conn: %v", err)
	}
	if err := c.Acquire(sid, "x", true, 0); err != nil {
		t.Fatalf("acquire after garbage conn: %v", err)
	}
}

// TestGracefulDrain: a blocked acquire receives a definitive expired
// response during shutdown instead of a dead socket.
func TestGracefulDrain(t *testing.T) {
	addr, srv := startServer(t, testCfg())

	holder := dial(t, addr)
	hsid, err := holder.Open(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := holder.Acquire(hsid, "k", true, 0); err != nil {
		t.Fatal(err)
	}
	blocked := dial(t, addr)
	bsid, err := blocked.Open(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- blocked.Acquire(bsid, "k", true, -1) }()

	// Wait until the acquire is parked server-side.
	probe := dial(t, addr)
	deadline := time.Now().Add(5 * time.Second)
	for {
		raw, err := probe.Stats()
		if err != nil {
			t.Fatal(err)
		}
		var snap lockmgr.Snapshot
		if err := json.Unmarshal(raw, &snap); err != nil {
			t.Fatal(err)
		}
		if snap.Waiting == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("acquire never parked")
		}
		time.Sleep(time.Millisecond)
	}

	srv.Shutdown(5 * time.Second)
	if err := <-errc; err != lockmgr.ErrExpired {
		t.Fatalf("blocked acquire during drain = %v, want ErrExpired", err)
	}
}
