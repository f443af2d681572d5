package server

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"fairrw/internal/lockmgr/wire"
	"fairrw/internal/stats"
)

// flusher is one worker's write stage for whatever the loop's own
// non-blocking write (worker.flush) did not get onto the socket: it keeps
// blocking socket writes out from under loopMu. flush hands the conn's
// coalesced response chunk over and returns immediately; the flusher
// snapshots the conn's queued chunks into a net.Buffers and writes them
// with one writev, preserving per-conn order (chunks are appended in loop
// order and drained FIFO by a single servicer, and the loop writes inline
// only while none are queued).
//
// A stalled peer — zero receive window — cannot stall the loop: the
// flusher's per-pass write deadline (Config.FlushPass) bounds how
// long one conn may occupy the stage, after which the remainder of its
// backlog escalates to a dedicated writer goroutine with the full
// WriteTimeout budget. Other conns on the same worker therefore wait at
// most one flusher pass behind a stuck socket, and a conn that exhausts
// even the escalated budget is condemned (writeFailed) exactly as a
// failed in-loop write used to be.
type flusher struct {
	w *worker

	mu      sync.Mutex
	backlog []*conn       // conns with queued chunks, FIFO
	swap    []*conn       // double-buffer for the drain loop
	kick    chan struct{} // cap-1 nudge: backlog became non-empty

	writevs     atomic.Uint64 // socket writes issued: writev passes here, inline writes by the loop
	writevBufs  atomic.Uint64 // chunks summed over those writes
	writevBytes atomic.Uint64 // bytes summed over those writes
	escalations atomic.Uint64 // passes that hit FlushPass and went to a goroutine
	writeErrs   atomic.Uint64 // conns condemned on a write error

	wvMu sync.Mutex
	wvH  stats.Histogram // chunks per writev pass
}

func newFlusher(w *worker) *flusher {
	return &flusher{w: w, kick: make(chan struct{}, 1)}
}

// enqueue schedules c for a flusher pass. Worker only, called with the
// conn's first chunk already appended under fmu and fqueued freshly
// set; the unbounded backlog slice (not a fixed-cap channel) means a
// handoff can never be dropped or block the loop.
func (f *flusher) enqueue(c *conn) {
	f.mu.Lock()
	f.backlog = append(f.backlog, c)
	f.mu.Unlock()
	select {
	case f.kick <- struct{}{}:
	default:
	}
}

// run is the flusher goroutine. It exits once the worker is dead and
// the backlog is drained — every chunk handed off before the worker
// exited is still written (or condemned), which is what keeps the
// drain's flush-before-close promise.
func (f *flusher) run() {
	defer f.w.srv.wg.Done()
	dead := f.w.dead
	for {
		f.mu.Lock()
		batch := f.backlog
		f.backlog = f.swap[:0]
		f.swap = batch
		f.mu.Unlock()
		for _, c := range batch {
			f.service(c)
		}
		if len(batch) > 0 {
			continue // drain fully before sleeping
		}
		if dead == nil {
			return
		}
		select {
		case <-f.kick:
		case <-dead:
			// Final sweep: anything enqueued before dead closed is in the
			// backlog (enqueue appends under mu before the worker exits).
			dead = nil
		}
	}
}

// service writes c's queued chunks until none remain, then either
// requeues nothing (fqueued drops) or performs the deferred close the
// worker asked for. Exactly one goroutine services a conn at a time:
// fqueued stays true from the worker's handoff until this loop (or its
// escalation) observes an empty queue, so the worker never double-
// enqueues and order is preserved.
func (f *flusher) service(c *conn) {
	for {
		c.fmu.Lock()
		if c.fdropped {
			f.discardLocked(c)
			c.fqueued = false
			c.fmu.Unlock()
			return
		}
		if len(c.outq) == 0 {
			// Drop the pass deadline before the loop may write inline again:
			// once it fires, every write on the socket fails until it is reset.
			c.nc.SetWriteDeadline(time.Time{})
			c.fqueued = false
			closeNow := c.closeOnFlush
			if closeNow {
				c.fdropped = true
			}
			c.fmu.Unlock()
			if closeNow {
				c.nc.Close()
			}
			return
		}
		// Take the queued chunks, leaving the alternate array for the
		// worker to fill; the arrays swap roles every pass so the steady
		// state allocates nothing.
		bufs, owners := c.outq, c.outb
		c.outq, c.outb = c.outqAlt[:0], c.outbAlt[:0]
		c.outqAlt, c.outbAlt = bufs, owners
		c.fmu.Unlock()

		if !f.writePass(c, bufs, owners) {
			return // escalated or condemned; servicing continues elsewhere
		}
	}
}

// writePass issues one writev for bufs with the per-pass deadline.
// Returns true when the chunks were fully written and freed; false when
// the pass handed the conn to an escalation goroutine or condemned it.
func (f *flusher) writePass(c *conn, bufs [][]byte, owners []*wire.Buffer) bool {
	total := 0
	for _, b := range bufs {
		total += len(b)
	}
	c.nc.SetWriteDeadline(time.Now().Add(f.w.srv.cfg.FlushPass))
	c.wv = net.Buffers(bufs)
	n, err := c.wv.WriteTo(c.nc)
	f.count(len(bufs), int(n))

	if err == nil {
		c.wv = nil
		f.release(c, owners, total)
		return true
	}
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		// The peer's receive window closed mid-pass. Hand the remainder
		// (c.wv was consumed in place by WriteTo) to a dedicated writer
		// so the flusher moves on to this worker's other conns. owners
		// are freed — and the pass's bytes retired from the backlog
		// accounting — only once every chunk is down, so the partially-
		// written head chunk stays alive.
		f.escalations.Add(1)
		f.w.st.flushStalls.Add(1)
		rest := c.wv
		c.wv = nil
		go f.escalate(c, rest, owners, total)
		return false
	}
	c.wv = nil
	f.condemn(c, owners, total)
	return false
}

// count books one socket write of the given chunks and bytes.
func (f *flusher) count(chunks, bytes int) {
	f.writevs.Add(1)
	f.writevBufs.Add(uint64(chunks))
	f.writevBytes.Add(uint64(bytes))
	f.wvMu.Lock()
	f.wvH.Add(uint64(chunks))
	f.wvMu.Unlock()
}

// escalate finishes a stalled conn's backlog on its own goroutine with
// the full WriteTimeout budget, then resumes normal servicing (more
// chunks may have queued behind the stall). total is the whole pass's
// byte count: the accounting for it is settled here, by release or
// condemn, never split across the passes.
func (f *flusher) escalate(c *conn, nb net.Buffers, owners []*wire.Buffer, total int) {
	start := time.Now()
	c.nc.SetWriteDeadline(start.Add(f.w.srv.cfg.WriteTimeout))
	_, err := nb.WriteTo(c.nc)
	f.w.st.flushStallNS.Add(uint64(time.Since(start)))
	if err != nil {
		f.condemn(c, owners, total)
		return
	}
	f.release(c, owners, total)
	f.service(c)
}

// release frees a fully-written pass's chunk owners and retires the
// bytes from the conn's backlog accounting, nudging the worker if the
// conn was parse-paused over maxOutq and has now drained under it.
func (f *flusher) release(c *conn, owners []*wire.Buffer, written int) {
	for i, wb := range owners {
		owners[i] = nil
		wb.Free()
	}
	was := c.outBytes.Add(int64(-written)) + int64(written)
	if was > maxOutq && was-int64(written) <= maxOutq {
		f.w.wake(c)
	}
}

// condemn retires a conn whose socket failed: drop its remaining
// chunks, mark the failure for the worker, close the socket (which also
// kicks the reader out of its blocking Read), and wake the worker so
// cleanup runs even if the reader is already gone.
func (f *flusher) condemn(c *conn, owners []*wire.Buffer, remaining int) {
	f.writeErrs.Add(1)
	for i, wb := range owners {
		owners[i] = nil
		wb.Free()
	}
	c.outBytes.Add(int64(-remaining))
	c.fmu.Lock()
	f.discardLocked(c)
	c.fdropped = true
	c.fqueued = false
	c.fmu.Unlock()
	c.writeFailed.Store(true)
	c.nc.Close()
	f.w.wake(c)
}

// discardLocked frees every chunk still queued. Caller holds c.fmu.
func (f *flusher) discardLocked(c *conn) {
	drop := 0
	for _, b := range c.outq {
		drop += len(b)
	}
	for i, wb := range c.outb {
		c.outb[i] = nil
		wb.Free()
	}
	c.outq = c.outq[:0]
	c.outb = c.outb[:0]
	if drop > 0 {
		c.outBytes.Add(int64(-drop))
	}
}
