package server

import (
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"fairrw/internal/lockmgr"
	"fairrw/internal/lockmgr/wire"
)

// quietCfg is a manager config with every deadline pushed out past the
// test's lifetime, so the manager's timer cannot allocate (or collect the
// lock entry under test) while AllocsPerRun is counting mallocs — the
// counter is process-global, not per-goroutine.
func quietCfg() lockmgr.Config {
	return lockmgr.Config{
		MaxLease: time.Hour,
		IdleTTL:  time.Hour,
	}
}

// TestPipelinedReadAllocs pins the steady-state round — parse a 16-op
// pipelined read, execute it as one ExecBatch, encode the 16 responses —
// at zero allocations. This is the server's hot path; an allocation here
// is paid once per read at saturation.
//
// The test is the loop: it holds the worker's loopMu for the duration
// (being the loop, exactly as a donating reader goroutine would) and
// drives round directly against a fabricated conn, stopping short of
// the socket write (TestDrainPassAllocs covers the slow one).
func TestPipelinedReadAllocs(t *testing.T) {
	srv := NewWithConfig(lockmgr.New(quietCfg()), Config{Workers: 2})
	defer srv.Shutdown(time.Second)
	sid, err := srv.m.Open(time.Hour)
	if err != nil {
		t.Fatal(err)
	}

	var frames []byte
	for i := 0; i < 8; i++ {
		name := "read-alloc-" + string(rune('a'+i))
		frames, _ = wire.AppendRequestFrame(frames, &wire.Request{Op: wire.OpAcquire, SID: sid, Excl: i == 0, Name: name})
		frames, _ = wire.AppendRequestFrame(frames, &wire.Request{Op: wire.OpRelease, SID: sid, Excl: i == 0, Name: name})
	}

	w := srv.workers[0]
	c := &conn{id: 1, w: w}
	c.cond = sync.NewCond(&c.mu)

	w.loopMu.Lock()
	defer w.release()
	w.ready = append(w.ready, c)
	defer func() { w.ready = w.ready[:0] }()

	batches := w.st.batches.Load()
	rounds := uint64(0)
	read := func() {
		c.pending = append(c.pending[:0], frames...)
		c.parsePos = 0
		if !w.round() || c.dead || c.parked || c.parsePos != 0 || len(c.pending) != 0 {
			t.Fatalf("round did not consume the read (dead=%v parked=%v pos=%d left=%d)",
				c.dead, c.parked, c.parsePos, len(c.pending))
		}
		if len(c.wbuf) == 0 {
			t.Fatal("no responses encoded")
		}
		c.wbuf = c.wbuf[:0]
		rounds++
	}
	for i := 0; i < 64; i++ {
		read() // warm: batch scratch, op slices, wbuf, lock entries
	}
	if allocs := testing.AllocsPerRun(100, read); allocs != 0 {
		t.Fatalf("16-op read round allocates %.1f times, want 0", allocs)
	}
	if got := w.st.batches.Load() - batches; got != rounds {
		t.Fatalf("%d reads took %d batches, want one each", rounds, got)
	}
	if got := w.st.batchOps.Load(); got != 16*rounds {
		t.Fatalf("%d reads executed %d ops, want 16 each", rounds, got)
	}
}

// TestDrainPassAllocs pins the slow-write path — flush appends the bytes
// to the conn's queue and starts its drain, the drain swaps the queue with
// its spare array, issues one write and exits — at zero allocations in
// steady state, the goroutine start included. The conn is given no
// descriptor, so every flush takes this path; the peer reads continuously,
// so no pass waits.
func TestDrainPassAllocs(t *testing.T) {
	srv := NewWithConfig(lockmgr.New(quietCfg()), Config{Workers: 1})
	defer srv.Shutdown(time.Second)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		nc, err := ln.Accept()
		if err == nil {
			accepted <- nc
		}
	}()
	peer, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	go io.Copy(io.Discard, peer) // the healthy reader: writevs never stall
	var nc net.Conn
	select {
	case nc = <-accepted:
	case <-time.After(5 * time.Second):
		t.Fatal("accept timed out")
	}
	defer nc.Close()

	w := srv.workers[0]
	c := &conn{id: 1, nc: nc, w: w}
	c.cond = sync.NewCond(&c.mu)

	w.loopMu.Lock() // the test is the loop
	defer w.release()
	var chunk [256]byte // one coalesced response chunk's worth of bytes
	pass := func() {
		c.wbuf = append(c.wbuf, chunk[:]...)
		c.flushMark = true
		w.flush(c)
		for c.drainBusy() {
			runtime.Gosched()
		}
		if c.writeFailed.Load() {
			t.Fatal("drain pass condemned the conn")
		}
	}
	for i := 0; i < 64; i++ {
		pass() // warm: deadline timer, the queue's two arrays, goroutine free list
	}
	writevs := w.st.writevs.Load()
	if allocs := testing.AllocsPerRun(100, pass); allocs != 0 {
		t.Fatalf("drain pass allocates %.1f times, want 0", allocs)
	}
	if got := w.st.writevs.Load() - writevs; got != 101 {
		t.Fatalf("101 passes took %d writes, want one drain pass each", got)
	}
	if ws := srv.WorkerStats()[0]; ws.FlushStalls != 0 || ws.InlineWrites != 0 {
		t.Fatalf("flush_stalls %d inline_writes %d on a descriptor-less conn, want 0 and 0", ws.FlushStalls, ws.InlineWrites)
	}
}
