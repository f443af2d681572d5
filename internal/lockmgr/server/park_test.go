package server

import (
	"bufio"
	"encoding/json"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"fairrw/internal/lockmgr"
	"fairrw/internal/lockmgr/wire"
)

// rawClient is a frame-level client for tests that need to pipeline op
// mixes the production client cannot (e.g. stats behind a blocking
// acquire) and to observe exactly when each response byte arrives.
type rawClient struct {
	t    *testing.T
	nc   net.Conn
	br   *bufio.Reader
	rbuf []byte
}

func dialRaw(t *testing.T, addr string) *rawClient {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return &rawClient{t: t, nc: nc, br: bufio.NewReaderSize(nc, 4096)}
}

func (r *rawClient) write(reqs ...*wire.Request) {
	r.t.Helper()
	if err := r.tryWrite(reqs...); err != nil {
		r.t.Fatal(err)
	}
}

// tryWrite and tryRead are write and read for goroutines that may not
// call t.Fatal, and for streams that are expected to end.
func (r *rawClient) tryWrite(reqs ...*wire.Request) error {
	var buf []byte
	for _, req := range reqs {
		var err error
		if buf, err = wire.AppendRequestFrame(buf, req); err != nil {
			return err
		}
	}
	_, err := r.nc.Write(buf)
	return err
}

func (r *rawClient) read(timeout time.Duration) wire.Response {
	r.t.Helper()
	resp, err := r.tryRead(timeout)
	if err != nil {
		r.t.Fatalf("read response: %v", err)
	}
	return resp
}

func (r *rawClient) tryRead(timeout time.Duration) (wire.Response, error) {
	r.nc.SetReadDeadline(time.Now().Add(timeout))
	p, err := wire.ReadFrame(r.br, &r.rbuf)
	if err != nil {
		return wire.Response{}, err
	}
	return wire.DecodeResponse(p)
}

// expectSilence asserts no response bytes arrive within d.
func (r *rawClient) expectSilence(d time.Duration) {
	r.t.Helper()
	if r.br.Buffered() > 0 {
		r.t.Fatalf("%d unexpected response bytes already buffered", r.br.Buffered())
	}
	r.nc.SetReadDeadline(time.Now().Add(d))
	_, err := r.br.Peek(1)
	if err == nil {
		r.t.Fatal("got a response while the acquire ahead was still parked")
	}
	if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
		r.t.Fatalf("expected read timeout, got %v", err)
	}
}

func (r *rawClient) open(t *testing.T, lease time.Duration) uint64 {
	t.Helper()
	r.write(&wire.Request{Op: wire.OpOpen, Lease: int64(lease)})
	resp := r.read(5 * time.Second)
	if resp.Status != wire.StatusOK || resp.SID == 0 {
		t.Fatalf("open: status=%d sid=%d", resp.Status, resp.SID)
	}
	return resp.SID
}

// TestStatsPipelinedBehindParkedAcquire pins per-connection response
// order when a stats request is pipelined behind a blocking acquire.
// The parse pass consumes the stats frame in the same round the acquire
// parks; the park rewinds the cursor to before the stats frame, so the
// server must NOT answer it this wakeup — it re-parses after the grant.
// The regression this guards: the stats response jumping ahead of the
// parked acquire's response and then being answered a second time on
// re-parse (three responses for two requests, stream desynced).
func TestStatsPipelinedBehindParkedAcquire(t *testing.T) {
	addr, _ := startServer(t, testCfg())

	holder := dial(t, addr)
	hsid, err := holder.Open(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := holder.Acquire(hsid, "k", true, 0); err != nil {
		t.Fatal(err)
	}

	rc := dialRaw(t, addr)
	sid := rc.open(t, 5*time.Second)
	// One write, three frames: the acquire parks, the stats and
	// keepalive are stuck behind it.
	rc.write(
		&wire.Request{Op: wire.OpAcquire, SID: sid, Excl: true, Wait: -1, Name: "k"},
		&wire.Request{Op: wire.OpStats},
		&wire.Request{Op: wire.OpKeepAlive, SID: sid, Lease: int64(5 * time.Second)},
	)
	waitForWaiting(t, addr, 1)

	// Nothing may come back while the acquire is parked — in particular
	// not the stats response.
	rc.expectSilence(200 * time.Millisecond)

	if err := holder.Release(hsid, "k", true); err != nil {
		t.Fatal(err)
	}

	// Exactly three responses, in request order.
	if resp := rc.read(5 * time.Second); resp.Status != wire.StatusOK {
		t.Fatalf("acquire response status %d, want OK", resp.Status)
	}
	stats := rc.read(5 * time.Second)
	if stats.Status != wire.StatusOK {
		t.Fatalf("stats response status %d, want OK", stats.Status)
	}
	var snap lockmgr.Snapshot
	if err := json.Unmarshal(stats.Payload, &snap); err != nil {
		t.Fatalf("stats payload is not the snapshot JSON: %v", err)
	}
	if resp := rc.read(5 * time.Second); resp.Status != wire.StatusOK {
		t.Fatalf("keepalive response status %d, want OK", resp.Status)
	}
	// No duplicate stats response trails the burst.
	rc.expectSilence(200 * time.Millisecond)
}

// TestStatsSnapshotEndsAtItsFrame: an OpStats frame ends its conn's parse
// for the round, so its snapshot covers the frames before it and none
// after, even a frame that arrived in the same write.
func TestStatsSnapshotEndsAtItsFrame(t *testing.T) {
	addr, _ := startServer(t, testCfg())
	rc := dialRaw(t, addr)
	sid := rc.open(t, 5*time.Second)
	rc.write(
		&wire.Request{Op: wire.OpAcquire, SID: sid, Excl: true, Name: "y"},
		&wire.Request{Op: wire.OpStats},
		&wire.Request{Op: wire.OpAcquire, SID: sid, Excl: true, Name: "z"},
	)
	if resp := rc.read(5 * time.Second); resp.Status != wire.StatusOK {
		t.Fatalf("acquire y: status %d, want OK", resp.Status)
	}
	stats := rc.read(5 * time.Second)
	var snap lockmgr.Snapshot
	if stats.Status != wire.StatusOK || json.Unmarshal(stats.Payload, &snap) != nil {
		t.Fatalf("stats: status %d, payload %q", stats.Status, stats.Payload)
	}
	if snap.ExclGrants != 1 {
		t.Errorf("snapshot counts %d excl grants, want 1: y before the stats frame, not z after it", snap.ExclGrants)
	}
	if resp := rc.read(5 * time.Second); resp.Status != wire.StatusOK {
		t.Fatalf("acquire z: status %d, want OK", resp.Status)
	}
}

// findServerConn locates the server-side conn for a client socket.
func findServerConn(t *testing.T, srv *Server, local net.Addr) *conn {
	t.Helper()
	srv.mu.Lock()
	defer srv.mu.Unlock()
	for c := range srv.conns {
		if c.nc.RemoteAddr().String() == local.String() {
			return c
		}
	}
	t.Fatalf("no server conn for %v", local)
	return nil
}

// TestParkedConnBackpressure verifies the documented maxInbox bound: a
// client that keeps streaming requests while an earlier acquire is
// parked must be absorbed by the inbox (capped, reader blocks, TCP
// backpressure) — not leak into the worker's pending buffer, which a
// park can hold for a full lease. Afterwards every streamed request is
// still answered exactly once, in order: skipping the inbox transfer
// while parked must not lose a wakeup.
func TestParkedConnBackpressure(t *testing.T) {
	addr, srv := startServer(t, testCfg())

	holder := dial(t, addr)
	hsid, err := holder.Open(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := holder.Acquire(hsid, "k", true, 0); err != nil {
		t.Fatal(err)
	}

	rc := dialRaw(t, addr)
	sid := rc.open(t, time.Minute)
	rc.write(&wire.Request{Op: wire.OpAcquire, SID: sid, Excl: true, Wait: -1, Name: "k"})
	waitForWaiting(t, addr, 1)
	sc := findServerConn(t, srv, rc.nc.LocalAddr())

	// Stream ~4x maxInbox of keepalives behind the parked acquire. The
	// write may block once the inbox cap plus socket buffers fill —
	// that IS the backpressure — so it runs in the background and the
	// blocked portion completes after the grant.
	frame, err := wire.AppendRequestFrame(nil,
		&wire.Request{Op: wire.OpKeepAlive, SID: sid, Lease: int64(time.Minute)})
	if err != nil {
		t.Fatal(err)
	}
	n := 4 * maxInbox / len(frame)
	var sent atomic.Int64
	writerDone := make(chan error, 1)
	go func() {
		burst := make([]byte, 0, 64<<10)
		for i := 0; i < n; {
			burst = burst[:0]
			for ; i < n && len(burst)+len(frame) <= cap(burst); i++ {
				burst = append(burst, frame...)
			}
			if _, err := rc.nc.Write(burst); err != nil {
				writerDone <- err
				return
			}
			sent.Add(int64(len(burst)))
		}
		writerDone <- nil
	}()

	// While parked, pending must stay bounded no matter how much the
	// client streams; the inbox may fill only to its cap (+ one read
	// chunk, since the reader checks the cap before appending).
	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		sc.w.loopMu.Lock()
		pendBacklog := len(sc.pending) - sc.parsePos
		sc.w.release()
		if pendBacklog > maxInbox {
			t.Fatalf("pending backlog %d bytes while parked (sent %d): maxInbox backpressure bypassed",
				pendBacklog, sent.Load())
		}
		sc.mu.Lock()
		inboxLen := len(sc.inbox)
		sc.mu.Unlock()
		if inboxLen > maxInbox+readChunk {
			t.Fatalf("inbox %d bytes, cap is %d+%d", inboxLen, maxInbox, readChunk)
		}
		time.Sleep(5 * time.Millisecond)
	}

	if err := holder.Release(hsid, "k", true); err != nil {
		t.Fatal(err)
	}
	if err := <-writerDone; err != nil {
		t.Fatalf("background writer: %v", err)
	}

	// The grant response, then every keepalive answered in order.
	if resp := rc.read(10 * time.Second); resp.Status != wire.StatusOK {
		t.Fatalf("acquire response status %d, want OK", resp.Status)
	}
	for i := 0; i < n; i++ {
		if resp := rc.read(10 * time.Second); resp.Status != wire.StatusOK {
			t.Fatalf("keepalive %d/%d status %d, want OK", i, n, resp.Status)
		}
	}
	rc.expectSilence(200 * time.Millisecond)
}
