package server

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"fairrw/internal/lockmgr/client"
	"fairrw/internal/lockmgr/wire"
)

// workerTotals sums the counters the one-batch assertions read.
func workerTotals(srv *Server) (batches, batchOps, writevs, parks uint64) {
	for _, ws := range srv.WorkerStats() {
		batches += ws.Batches
		batchOps += ws.BatchOps
		writevs += ws.Writevs
		parks += ws.Parks
	}
	return
}

// TestWorkersHonoured pins the worker count at what was asked for: no
// rounding to a power of two.
func TestWorkersHonoured(t *testing.T) {
	mcfg := testCfg()
	addr, srv := startServerCfg(t, mcfg, Config{Workers: 6})
	if got := srv.Workers(); got != 6 {
		t.Fatalf("Workers() = %d, want 6", got)
	}
	// Six conns dealt round-robin: every loop serves exactly one.
	for i := 0; i < 6; i++ {
		if _, err := dial(t, addr).Open(time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	workers := srv.Metrics(BuildInfo{}, 1).Workers
	if len(workers) != 6 {
		t.Fatalf("metrics payload lists %d workers, want 6", len(workers))
	}
	for _, ws := range workers {
		if ws.Conns != 1 || ws.Batches == 0 {
			t.Fatalf("worker %d: %d conns, %d batches; want 1 conn and its open executed", ws.Worker, ws.Conns, ws.Batches)
		}
	}
}

// TestPipelinedReadIsOneBatch pins the one execution path: every frame
// of a read, whatever names it carries, executes in a single
// ExecBatch on the worker that decoded it and leaves in a single writev.
func TestPipelinedReadIsOneBatch(t *testing.T) {
	addr, srv := startServerCfg(t, testCfg(), Config{Workers: 2})
	rc := dialRaw(t, addr)
	sid := rc.open(t, time.Minute)

	// 16 frames over 8 names. Even names acquire then release (OK, OK);
	// odd names release first (NotHeld) then acquire (OK), so a reordered
	// response stream shows up as the wrong status sequence.
	var reqs []*wire.Request
	var want []wire.Status
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("one-batch-%d", i)
		acq := &wire.Request{Op: wire.OpAcquire, SID: sid, Excl: i%4 == 0, Name: name}
		rel := &wire.Request{Op: wire.OpRelease, SID: sid, Excl: i%4 == 0, Name: name}
		if i%2 == 0 {
			reqs = append(reqs, acq, rel)
			want = append(want, wire.StatusOK, wire.StatusOK)
		} else {
			reqs = append(reqs, rel, acq)
			want = append(want, wire.StatusNotHeld, wire.StatusOK)
		}
	}

	b0, o0, w0, _ := workerTotals(srv)
	rc.write(reqs...) // one Write
	for i, ws := range want {
		if resp := rc.read(5 * time.Second); resp.Status != ws {
			t.Fatalf("response %d status %d, want %d", i, resp.Status, ws)
		}
	}
	// A writev is counted after the write returns; the client can have
	// read the bytes first.
	deadline := time.Now().Add(2 * time.Second)
	for {
		_, _, w1, _ := workerTotals(srv)
		if w1 > w0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	b1, o1, w1, _ := workerTotals(srv)
	if b1-b0 != 1 || o1-o0 != 16 || w1-w0 != 1 {
		t.Fatalf("16-frame read cost %d batches, %d batch ops, %d writevs; want 1, 16, 1",
			b1-b0, o1-o0, w1-w0)
	}
}

// TestCrossWorkerOrdering pins per-connection response order when two
// connections on different workers contend one name: the pipelined
// frames behind the acquire that parks must wait for the grant — which
// the other worker's batch produces — then answer in request order, one
// response per request.
func TestCrossWorkerOrdering(t *testing.T) {
	addr, srv := startServerCfg(t, testCfg(), Config{Workers: 2})

	holder := dial(t, addr)
	hsid, err := holder.Open(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := holder.Acquire(hsid, "kH", true, 0); err != nil {
		t.Fatal(err)
	}
	rc := dialRaw(t, addr)
	sid := rc.open(t, time.Minute)

	// Round-robin accept put the two conns on the two workers.
	me := findServerConn(t, srv, rc.nc.LocalAddr())
	srv.mu.Lock()
	for c := range srv.conns {
		if c != me && c.w == me.w {
			t.Errorf("both conns landed on worker %d", me.w.idx)
		}
	}
	srv.mu.Unlock()

	// One write, five frames. The kH acquire parks; everything behind it
	// must wait for the grant, then answer in order. The not-held release
	// gives frame 4 a distinguishable status.
	_, _, _, p0 := workerTotals(srv)
	rc.write(
		&wire.Request{Op: wire.OpAcquire, SID: sid, Excl: true, Name: "kA"},
		&wire.Request{Op: wire.OpAcquire, SID: sid, Excl: true, Wait: -1, Name: "kH"},
		&wire.Request{Op: wire.OpRelease, SID: sid, Excl: true, Name: "kA"},
		&wire.Request{Op: wire.OpRelease, SID: sid, Excl: true, Name: "kB"},
		&wire.Request{Op: wire.OpKeepAlive, SID: sid, Lease: int64(time.Minute)},
	)

	// Frame 1 answers immediately; frame 2 parks; frames 3-5 defer.
	if resp := rc.read(5 * time.Second); resp.Status != wire.StatusOK {
		t.Fatalf("acquire kA status %d, want OK", resp.Status)
	}
	waitForWaiting(t, addr, 1)
	rc.expectSilence(200 * time.Millisecond)
	if _, _, _, p1 := workerTotals(srv); p1-p0 != 1 {
		t.Fatalf("%d parks, want 1", p1-p0)
	}

	if err := holder.Release(hsid, "kH", true); err != nil {
		t.Fatal(err)
	}
	want := []wire.Status{wire.StatusOK, wire.StatusOK, wire.StatusNotHeld, wire.StatusOK}
	for i, ws := range want {
		if resp := rc.read(5 * time.Second); resp.Status != ws {
			t.Fatalf("deferred response %d status %d, want %d", i, resp.Status, ws)
		}
	}
	rc.expectSilence(200 * time.Millisecond)
}

// TestReleaseGrantsOldestWaiterAcrossWorkers pins arrival order across
// worker loops. The holder and the younger waiter share a worker and the
// older waiter is on the other one: a grant on the releaser's own worker
// would be answered in its round, but the release must grant the older
// waiter first.
func TestReleaseGrantsOldestWaiterAcrossWorkers(t *testing.T) {
	addr, srv := startServerCfg(t, testCfg(), Config{Workers: 2})
	// Round-robin accept, one conn at a time: worker 0, 1, 0.
	var rcs [3]*rawClient
	var sids [3]uint64
	for i := range rcs {
		rcs[i] = dialRaw(t, addr)
		sids[i] = rcs[i].open(t, time.Minute)
	}
	workerOf := func(i int) int { return findServerConn(t, srv, rcs[i].nc.LocalAddr()).w.idx }
	if workerOf(0) != workerOf(2) || workerOf(0) == workerOf(1) {
		t.Fatalf("holder, older and younger on workers %d, %d, %d; want the holder's shared by the younger only",
			workerOf(0), workerOf(1), workerOf(2))
	}
	holder, older, younger := rcs[0], rcs[1], rcs[2]
	op := func(i int, op wire.Op) *wire.Request {
		return &wire.Request{Op: op, SID: sids[i], Excl: true, Wait: -1, Name: "k"}
	}

	holder.write(op(0, wire.OpAcquire))
	if resp := holder.read(5 * time.Second); resp.Status != wire.StatusOK {
		t.Fatalf("holder acquire status %d, want OK", resp.Status)
	}
	older.write(op(1, wire.OpAcquire))
	waitForWaiting(t, addr, 1)
	younger.write(op(2, wire.OpAcquire))
	waitForWaiting(t, addr, 2)

	holder.write(op(0, wire.OpRelease))
	if resp := holder.read(5 * time.Second); resp.Status != wire.StatusOK {
		t.Fatalf("holder release status %d, want OK", resp.Status)
	}
	if resp := older.read(5 * time.Second); resp.Status != wire.StatusOK {
		t.Fatalf("older waiter's grant status %d, want OK", resp.Status)
	}
	younger.expectSilence(200 * time.Millisecond)
	older.write(op(1, wire.OpRelease))
	if resp := older.read(5 * time.Second); resp.Status != wire.StatusOK {
		t.Fatalf("older release status %d, want OK", resp.Status)
	}
	if resp := younger.read(5 * time.Second); resp.Status != wire.StatusOK {
		t.Fatalf("younger waiter's grant status %d, want OK", resp.Status)
	}
}

// TestMultiWorkerDrainCondemnHammer is the -race stress for several
// worker loops against connection lifecycle: many connections pipeline
// op mixes over a tiny keyspace (forcing parks and cross-worker
// contention on the manager's mutex) while some streams are cut mid-flight
// (condemn/RST paths) and the rest drain cleanly through Shutdown. Run
// it under -race at GOMAXPROCS>=4; the assertions are liveness (every
// surviving request answers) and a clean global drain.
func TestMultiWorkerDrainCondemnHammer(t *testing.T) {
	mcfg := testCfg()
	addr, _ := startServerCfg(t, mcfg, Config{Workers: 4})

	const clients = 8
	const iters = 60
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) * 7919))
			if g%4 == 3 {
				// Rude client: pipeline a burst, then slam the socket shut
				// without reading a single response. The bogus SID keeps it
				// from mutating real sessions' lock state.
				nc, err := net.Dial("tcp", addr)
				if err != nil {
					return
				}
				var buf []byte
				buf, _ = wire.AppendRequestFrame(buf, &wire.Request{Op: wire.OpOpen, Lease: int64(time.Minute)})
				for i := 0; i < iters; i++ {
					buf, _ = wire.AppendRequestFrame(buf, &wire.Request{
						Op: wire.OpAcquire, SID: 1 << 60, Excl: true, Name: fmt.Sprintf("h-%d", rng.Intn(8))})
				}
				nc.Write(buf)
				time.Sleep(time.Duration(rng.Intn(10)) * time.Millisecond)
				nc.Close()
				return
			}
			c, err := client.Dial(addr)
			if err != nil {
				t.Errorf("client %d dial: %v", g, err)
				return
			}
			defer c.Close()
			sid, err := c.Open(time.Minute)
			if err != nil {
				t.Errorf("client %d open: %v", g, err)
				return
			}
			for i := 0; i < iters; i++ {
				name := fmt.Sprintf("h-%d", rng.Intn(8))
				excl := rng.Intn(4) != 0
				if err := c.Acquire(sid, name, excl, time.Second); err != nil {
					t.Errorf("client %d acquire %s: %v", g, name, err)
					return
				}
				if err := c.Release(sid, name, excl); err != nil {
					t.Errorf("client %d release %s: %v", g, name, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	// Shutdown (with its global drain-exit condition) runs in cleanup and
	// asserts Serve returns; a drain deadlock shows up there as the 10s
	// watchdog firing.
}
