package server

import (
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"fairrw/internal/lockmgr/wire"
)

// maxInbox bounds the bytes a connection may have read-but-unprocessed.
// When the bound is hit — a pipelining client running far ahead of a
// parked acquire — the reader goroutine stops reading, which is exactly
// TCP backpressure: the client's writes eventually block too.
const maxInbox = 256 << 10

// maxOutq bounds the response bytes queued for one conn's drain. Past it
// the worker stops parsing the conn (wblocked), the inbox fills behind the
// paused parse, the reader blocks, and TCP backpressure reaches the client
// — the same cascade maxInbox provides on the read side. Without this, a
// client that streams requests but never reads responses would grow the
// queue without bound.
const maxOutq = 256 << 10

// readChunk is the reader's per-syscall buffer. 16 KiB swallows a deep
// pipeline of requests (a request frame is at most 4+1052 bytes) in one
// read.
const readChunk = 16 << 10

// conn is one client connection. Its lifecycle spans three goroutines,
// the third only at times, with a strict split of ownership:
//
//   - the reader goroutine reads from the socket into inbox (guarded by
//     mu) and brings the conn to its worker;
//   - the owning worker's loop moves inbox into pending, parses frames,
//     and writes the socket with one non-blocking write per cycle;
//   - the drain goroutine exists only while the peer is behind: it starts
//     when that write leaves bytes over, writes the queued bytes (fmu) in
//     order with blocking writes, and exits when the queue runs dry;
//   - Shutdown only touches the net.Conn (deadlines, Close), never the
//     buffers.
type conn struct {
	id int32
	nc net.Conn
	rc syscall.RawConn // nc's descriptor, for the loop's inline write; nil if it has none
	w  *worker

	listed bool // a readiness event of this conn's is on the worker's list (guarded by w.evMu)

	mu     sync.Mutex
	cond   *sync.Cond // reader waits here while inbox is full
	inbox  []byte     // bytes read, not yet taken by the worker
	eof    bool       // reader finished (EOF, error, or shutdown deadline)
	gone   bool       // ... and not by the shutdown deadline: the peer is gone
	closed bool       // worker dropped the conn; reader must not block

	// Worker-owned state; no other goroutine touches these.
	pending   []byte // unparsed frame bytes (inbox is appended here)
	parsePos  int    // parse cursor into pending
	wbuf      []byte // encoded responses awaiting the cycle's flush
	parked    bool   // an acquire of this conn's is queued in the manager
	parkSID   uint64 // its session, for CancelWait
	dead      bool   // connection condemned; cleanup pending
	removed   bool   // retired from the worker; ignore late events
	eofSeen   bool   // worker has observed the reader's eof
	peerGone  bool   // ... and the reader's gone
	inReady   bool   // already collected into the worker's ready set
	flushMark bool   // wbuf touched this cycle; flush before it ends
	wrote     int    // writeOnce's result
	rawWrite  func(fd uintptr) bool
	drainFn   func() // c.drain, built once: no closure per go statement
	wblocked  bool   // queued bytes over maxOutq; parse paused

	// The slow-write queue, guarded by fmu (worker appends, drain takes).
	// out is non-empty only while fqueued.
	fmu          sync.Mutex
	out          []byte // response bytes awaiting the drain, in order
	spare        []byte // the array the drain wrote last; the next pass swaps it in
	fqueued      bool   // a drain is running; the loop queues behind it
	closeOnFlush bool   // worker dropped the conn; the drain closes it when done
	fdropped     bool   // socket closed for good: discard further bytes

	outBytes    atomic.Int64 // queued bytes not yet written (worker reads for wblocked)
	writeFailed atomic.Bool  // the drain hit a write error; worker must condemn
}

// readLoop is the reader goroutine: blocking (netpoller-driven) reads
// into inbox, waking the owning worker whenever new bytes land. It
// exits on any read error; the final event lets the worker observe
// eof, answer what is already buffered, and reclaim the conn.
func (c *conn) readLoop() {
	buf := make([]byte, readChunk)
	for {
		n, err := c.nc.Read(buf)
		c.mu.Lock()
		if n > 0 {
			if len(c.inbox) > maxInbox && !c.closed {
				// The inbox bound engaged: this reader now blocks, which
				// is what turns a runaway pipelining client into TCP
				// backpressure. Counted once per engagement, not per
				// cond wakeup, so the admin gauge reads as "times a
				// client was throttled".
				c.w.st.backpressure.Add(1)
				for len(c.inbox) > maxInbox && !c.closed {
					c.cond.Wait()
				}
			}
			c.inbox = append(c.inbox, buf[:n]...)
		}
		if err != nil {
			c.eof = true
			ne, ok := err.(net.Error)
			c.gone = !(ok && ne.Timeout()) // Shutdown's read deadline is the only timeout
		}
		c.mu.Unlock()
		if n > 0 || err != nil {
			// Be the loop ourselves; if another goroutine is, it batches the
			// bytes we just landed with whatever else piled up meanwhile.
			c.w.bring(event{c: c})
		}
		if err != nil {
			return
		}
	}
}

// take moves the inbox into the worker's pending buffer and notes the
// reader's end of stream. Worker only. While the conn is parked (or its
// queued responses are over maxOutq) the transfer is skipped: pending must
// not grow behind a queued acquire (which can hold it for a full lease)
// or behind a peer that is not reading responses, so the bytes stay in
// the inbox until it hits maxInbox and the reader blocks — that is where
// the backpressure bound lives; unpark's own noteReady (or the one the
// drain's report brings) takes whatever accumulated.
func (c *conn) take() {
	c.mu.Lock()
	if len(c.inbox) > 0 && !c.parked && !c.wblocked {
		c.pending = append(c.pending, c.inbox...)
		c.inbox = c.inbox[:0]
		c.cond.Signal()
	}
	c.eofSeen, c.peerGone = c.eof, c.gone
	c.mu.Unlock()
}

// drainBusy reports whether a drain holds (or is writing) earlier bytes
// of c's, which anything new must queue behind.
func (c *conn) drainBusy() bool {
	c.fmu.Lock()
	defer c.fmu.Unlock()
	return c.fqueued
}

// writeOnce makes one write(2) attempt on the socket with c.wbuf, never
// waiting for it to become writable, and returns the bytes taken (0 on
// EAGAIN or any error: the drain meets the error again and condemns the
// conn). Loop holder only, and only when !drainBusy.
func (c *conn) writeOnce() int {
	c.wrote = 0
	if c.rawWrite == nil {
		c.rawWrite = func(fd uintptr) bool { // built once: no closure per write
			c.wrote, _ = syscall.Write(int(fd), c.wbuf)
			return true // done either way: RawConn.Write must not wait
		}
	}
	if c.rc.Write(c.rawWrite) != nil {
		return 0
	}
	return max(c.wrote, 0)
}

// drain is the slow-write path, the only one: a goroutine worker.flush
// starts when its one non-blocking write left bytes of c's over and that
// lives until the queue runs dry. Each pass takes everything queued and
// writes it with one blocking write under the full writeTimeout, so a peer
// that stops reading occupies this goroutine and nothing else: the loop
// never waits on a socket and no other conn queues behind this one.
// Per-conn order holds because fqueued stays set from the start of the
// drain until it observes an empty queue under fmu — the loop writes
// inline only while !fqueued, and starts at most one drain at a time.
func (c *conn) drain() {
	w := c.w
	defer w.srv.wg.Done()
	for {
		c.fmu.Lock()
		if len(c.out) == 0 {
			// Drop the deadline before the loop may write inline again:
			// once it fires, every write on the socket fails until it is reset.
			c.nc.SetWriteDeadline(time.Time{})
			c.fqueued = false
			// A burst can grow the arrays far past any frame; keep only
			// what a frame's worth of responses needs for the conn's life.
			if cap(c.out) > wire.MaxFrame {
				c.out = nil
			}
			if cap(c.spare) > wire.MaxFrame {
				c.spare = nil
			}
			closeNow := c.closeOnFlush
			c.fdropped = closeNow
			c.fmu.Unlock()
			if closeNow {
				c.nc.Close()
				w.srv.removeConn(c)
			}
			return
		}
		// Take the queue, leaving the array written last for the worker to
		// fill: the two swap roles every pass, so the steady state
		// allocates nothing.
		buf := c.out
		c.out, c.spare = c.spare[:0], buf
		c.fmu.Unlock()

		c.nc.SetWriteDeadline(time.Now().Add(writeTimeout))
		n, err := c.nc.Write(buf)
		w.st.wrote(n)
		if err != nil {
			c.condemn(len(buf))
			return
		}
		// Retire the pass from the queue accounting, telling the worker if
		// the conn was parse-paused over maxOutq and is now under it.
		total := int64(len(buf))
		if left := c.outBytes.Add(-total); left <= maxOutq && left+total > maxOutq {
			w.bring(event{c: c})
		}
	}
}

// condemn retires a conn whose socket failed or whose peer took nothing
// for writeTimeout: drop the bytes still queued behind the failed pass
// (failed is that pass's byte count), close the socket — which also ends
// the reader's blocking Read — and hand the conn to its worker for
// cleanup, or finish the retirement here if the worker had already dropped
// it and was only waiting for the flush.
func (c *conn) condemn(failed int) {
	w := c.w
	w.st.writeErrs.Add(1)
	c.fmu.Lock()
	failed += len(c.out)
	c.out = nil
	c.fdropped, c.fqueued = true, false
	dropped := c.closeOnFlush
	c.fmu.Unlock()
	c.outBytes.Add(int64(-failed))
	c.writeFailed.Store(true)
	c.nc.Close()
	if dropped {
		w.srv.removeConn(c)
	} else {
		w.bring(event{c: c})
	}
}

// compact drops the consumed prefix of pending. Called only after the
// batch referencing pending's bytes has been executed and encoded.
func (c *conn) compact() {
	if c.parsePos == 0 {
		return
	}
	n := copy(c.pending, c.pending[c.parsePos:])
	c.pending = c.pending[:n]
	c.parsePos = 0
}
